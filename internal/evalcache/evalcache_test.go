package evalcache

import (
	"math"
	"strings"
	"sync"
	"testing"

	"webharmony/internal/param"
	"webharmony/internal/websim"
)

// testSpec returns a fully-populated spec; tests derive variants from it.
func testSpec() Spec {
	return Spec{
		ProxyNodes: 1, AppNodes: 2, DBNodes: 1, WorkLines: 2,
		Browsers: 200, ThinkMean: 0.5, Scale: 800, Sessions: true,
		Warm: 2, Measure: 8, Cool: 1,
		Seed:     7,
		Workload: "shopping",
		Nodes: map[int]param.Config{
			0: {133, 90, 95},
			1: {5, 20, 10},
			2: {5, 20, 11},
			3: {32768, 100, 101},
		},
	}
}

func testMeasurement(wips float64) websim.Measurement {
	return websim.Measurement{
		WIPS: wips, WIPSb: wips / 2, WIPSo: wips / 4,
		ErrorRate: 0.01, LineWIPS: []float64{wips / 2, wips / 2},
		RespMean: 0.2, RespP50: 0.1, RespP90: 0.4, RespP99: 0.9,
	}
}

func TestKeyDeterministic(t *testing.T) {
	k1, k2 := testSpec().Key(), testSpec().Key()
	if k1.String() != k2.String() {
		t.Fatalf("same spec, different keys:\n%s\n%s", k1, k2)
	}
	if k1.Hash() != k2.Hash() {
		t.Fatalf("same key string, different hashes: %d vs %d", k1.Hash(), k2.Hash())
	}
	if !strings.HasPrefix(k1.String(), "eval/v1|") {
		t.Fatalf("key not versioned: %q", k1)
	}
}

// TestKeyNodeOrderIndependent checks the canonical encoding does not
// depend on map insertion order.
func TestKeyNodeOrderIndependent(t *testing.T) {
	a := testSpec()
	b := testSpec()
	b.Nodes = make(map[int]param.Config)
	for _, id := range []int{3, 1, 0, 2} { // reversed-ish insertion order
		b.Nodes[id] = testSpec().Nodes[id]
	}
	if a.Key().String() != b.Key().String() {
		t.Fatalf("insertion order changed the key:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestKeyFieldSeparation checks that every spec field reaches the key:
// mutating any one of them must change the encoding.
func TestKeyFieldSeparation(t *testing.T) {
	base := testSpec().Key().String()
	mutants := map[string]func(*Spec){
		"ProxyNodes": func(s *Spec) { s.ProxyNodes++ },
		"AppNodes":   func(s *Spec) { s.AppNodes++ },
		"DBNodes":    func(s *Spec) { s.DBNodes++ },
		"WorkLines":  func(s *Spec) { s.WorkLines++ },
		"Browsers":   func(s *Spec) { s.Browsers++ },
		"ThinkMean":  func(s *Spec) { s.ThinkMean += 1e-12 },
		"Scale":      func(s *Spec) { s.Scale++ },
		"Sessions":   func(s *Spec) { s.Sessions = !s.Sessions },
		"Warm":       func(s *Spec) { s.Warm += 1e-9 },
		"Measure":    func(s *Spec) { s.Measure += 1e-9 },
		"Cool":       func(s *Spec) { s.Cool += 1e-9 },
		"Seed":       func(s *Spec) { s.Seed++ },
		"Workload":   func(s *Spec) { s.Workload += "x" },
		"NodeValue":  func(s *Spec) { s.Nodes[0] = param.Config{133, 90, 96} },
		"NodeID":     func(s *Spec) { s.Nodes[9] = s.Nodes[3]; delete(s.Nodes, 3) },
		"NodeCount":  func(s *Spec) { delete(s.Nodes, 3) },
	}
	for name, mutate := range mutants {
		s := testSpec()
		mutate(&s)
		if s.Key().String() == base {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestKeyDelimiterSafety crafts workload names that try to forge the
// field structure; the length prefix must keep them distinct.
func TestKeyDelimiterSafety(t *testing.T) {
	a := testSpec()
	a.Workload = "shopping|nodes=0"
	a.Nodes = map[int]param.Config{0: {1}}
	b := testSpec()
	b.Workload = "shopping"
	b.Nodes = map[int]param.Config{0: {1}}
	if a.Key().String() == b.Key().String() {
		t.Fatalf("workload with embedded delimiters collided: %s", a.Key())
	}
}

// TestKeyFloatExact checks the hex encoding separates floats that a
// short decimal rendering would merge, and tolerates non-finite values.
func TestKeyFloatExact(t *testing.T) {
	a, b := testSpec(), testSpec()
	a.ThinkMean = 0.1
	b.ThinkMean = 0.1 + 1e-17 // not representable apart? make sure distinct bits
	if a.ThinkMean == b.ThinkMean {
		b.ThinkMean = math.Nextafter(0.1, 1)
	}
	if a.Key().String() == b.Key().String() {
		t.Fatal("adjacent float bit patterns collided")
	}
	c := testSpec()
	c.ThinkMean = math.NaN()
	d := testSpec()
	d.ThinkMean = math.Inf(1)
	if c.Key().String() == d.Key().String() {
		t.Fatal("NaN and +Inf collided")
	}
}

func TestDoMemoizesAndCounts(t *testing.T) {
	c := New()
	key := testSpec().Key()
	calls := 0
	compute := func() websim.Measurement { calls++; return testMeasurement(100) }

	m1, cached := c.Do(key, compute)
	if cached {
		t.Fatal("first Do reported a cache hit")
	}
	m2, cached := c.Do(key, compute)
	if !cached {
		t.Fatal("second Do missed")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if m1.WIPS != m2.WIPS || len(m1.LineWIPS) != len(m2.LineWIPS) {
		t.Fatalf("hit returned a different measurement: %+v vs %+v", m1, m2)
	}

	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want lookups=2 hits=1 misses=1 entries=1", s)
	}
	if s.Bytes == 0 {
		t.Fatal("stats.Bytes = 0 after a stored entry")
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats HitRate != 0")
	}
}

// TestDoCloneIsolation checks a caller mutating the returned LineWIPS
// cannot corrupt the cached value, in either direction.
func TestDoCloneIsolation(t *testing.T) {
	c := New()
	key := testSpec().Key()
	src := testMeasurement(100)
	m1, _ := c.Do(key, func() websim.Measurement { return src })
	src.LineWIPS[0] = -1 // the computed value's slice
	m1.LineWIPS[1] = -2  // the returned value's slice
	m2, _ := c.Do(key, func() websim.Measurement { panic("must not recompute") })
	if m2.LineWIPS[0] != 50 || m2.LineWIPS[1] != 50 {
		t.Fatalf("cached LineWIPS corrupted: %v", m2.LineWIPS)
	}
}

// TestDoSingleFlight hammers one key from many goroutines: compute must
// run exactly once and every caller must see its result.
func TestDoSingleFlight(t *testing.T) {
	c := New()
	key := testSpec().Key()
	var mu sync.Mutex
	calls := 0
	start := make(chan struct{})
	var wg sync.WaitGroup
	const n = 16
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m, _ := c.Do(key, func() websim.Measurement {
				mu.Lock()
				calls++
				mu.Unlock()
				return testMeasurement(42)
			})
			if m.WIPS != 42 {
				errs <- "wrong measurement"
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", calls)
	}
	s := c.Stats()
	if s.Lookups != n || s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("stats = %+v, want lookups=%d misses=1 hits=%d", s, n, n-1)
	}
}

// TestDoPanicPropagates checks a panicking compute re-raises on the
// computing caller and on later lookups of the same key.
func TestDoPanicPropagates(t *testing.T) {
	c := New()
	key := testSpec().Key()
	boom := func() websim.Measurement { panic("boom") }
	mustPanic := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	if r := mustPanic(func() { c.Do(key, boom) }); r != "boom" {
		t.Fatalf("computing caller recovered %v, want boom", r)
	}
	if r := mustPanic(func() { c.Do(key, func() websim.Measurement { return testMeasurement(1) }) }); r != "boom" {
		t.Fatalf("later lookup recovered %v, want boom", r)
	}
}

func TestAddExistingWins(t *testing.T) {
	c := New()
	key := testSpec().Key()
	if _, cached := c.Do(key, func() websim.Measurement { return testMeasurement(100) }); cached {
		t.Fatal("unexpected hit")
	}
	if c.add(key.String(), testMeasurement(999)) {
		t.Fatal("add replaced a live entry")
	}
	m, cached := c.Do(key, func() websim.Measurement { panic("must not recompute") })
	if !cached || m.WIPS != 100 {
		t.Fatalf("entry replaced: cached=%v wips=%v", cached, m.WIPS)
	}
	if len(c.entries) != 1 {
		t.Fatalf("len(entries) = %d, want 1", len(c.entries))
	}
}

func TestAddCountsAsLaterHit(t *testing.T) {
	c := New()
	key := testSpec().Key()
	if !c.add(key.String(), testMeasurement(77)) {
		t.Fatal("add rejected a fresh key")
	}
	s := c.Stats()
	if s.Lookups != 0 || s.Hits != 0 || s.Misses != 0 || s.Entries != 1 {
		t.Fatalf("warm-start stats = %+v, want only entries=1", s)
	}
	m, cached := c.Do(key, func() websim.Measurement { panic("must not recompute") })
	if !cached || m.WIPS != 77 {
		t.Fatalf("warm-started entry not served: cached=%v wips=%v", cached, m.WIPS)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats after warm hit = %+v", s)
	}
}
