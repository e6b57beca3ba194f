package tpcw

import (
	"math"
	"testing"

	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/webobj"
)

func TestMixesSumTo100(t *testing.T) {
	for _, w := range Workloads() {
		m := Mix(w)
		sum := 0.0
		for _, p := range m {
			sum += p
		}
		if math.Abs(sum-100) > 0.01 {
			t.Errorf("%v mix sums to %v, want 100", w, sum)
		}
	}
}

func TestMixBrowseOrderSplit(t *testing.T) {
	// Table 1 headline splits: 95/5, 80/20, 50/50.
	want := map[Workload]float64{Browsing: 95, Shopping: 80, Ordering: 50}
	for w, browseWant := range want {
		m := Mix(w)
		browse := 0.0
		for i, p := range m {
			if Interaction(i).Class() == ClassBrowse {
				browse += p
			}
		}
		if math.Abs(browse-browseWant) > 0.01 {
			t.Errorf("%v browse share = %v, want %v", w, browse, browseWant)
		}
	}
}

func TestTable1SpotValues(t *testing.T) {
	if Mix(Browsing)[Home] != 29.00 {
		t.Error("browsing Home != 29.00")
	}
	if Mix(Shopping)[SearchRequest] != 20.00 {
		t.Error("shopping Search Request != 20.00")
	}
	if Mix(Ordering)[BuyConfirm] != 10.18 {
		t.Error("ordering Buy Confirm != 10.18")
	}
	if Mix(Ordering)[AdminConfirm] != 0.11 {
		t.Error("ordering Admin Confirm != 0.11")
	}
}

func TestInteractionNamesAndClasses(t *testing.T) {
	if Home.String() != "Home" || BuyConfirm.String() != "Buy Confirm" {
		t.Fatal("interaction names wrong")
	}
	if Interaction(-1).String() != "unknown" || Interaction(99).String() != "unknown" {
		t.Fatal("out-of-range interaction name")
	}
	if Home.Class() != ClassBrowse || SearchResults.Class() != ClassBrowse {
		t.Fatal("browse classification wrong")
	}
	if ShoppingCart.Class() != ClassOrder || AdminConfirm.Class() != ClassOrder {
		t.Fatal("order classification wrong")
	}
	if ClassBrowse.String() != "browse" || ClassOrder.String() != "order" {
		t.Fatal("class names wrong")
	}
}

func TestWorkloadString(t *testing.T) {
	if Browsing.String() != "browsing" || Shopping.String() != "shopping" ||
		Ordering.String() != "ordering" || Workload(9).String() != "unknown" {
		t.Fatal("workload names wrong")
	}
}

func TestDBActionString(t *testing.T) {
	if DBNone.String() != "none" || DBRead.String() != "read" ||
		DBJoin.String() != "join" || DBWrite.String() != "write" ||
		DBAction(9).String() != "unknown" {
		t.Fatal("DBAction names wrong")
	}
}

func TestProfilesSaneShape(t *testing.T) {
	// Order-class pages that confirm purchases must write to the DB.
	for _, i := range []Interaction{ShoppingCart, BuyRequest, BuyConfirm, AdminConfirm} {
		if ProfileOf(i).DB != DBWrite {
			t.Errorf("%v should write to the database", i)
		}
	}
	// Static pages need no database.
	for i := 0; i < NumInteractions; i++ {
		p := ProfileOf(Interaction(i))
		if p.Static && p.DB != DBNone {
			t.Errorf("%v is static but touches the DB", Interaction(i))
		}
		if !p.Static && p.DBResultKB <= 0 && p.DB != DBNone {
			t.Errorf("%v has DB work but no result size", Interaction(i))
		}
	}
	if !ProfileOf(Home).Static {
		t.Error("Home should be static")
	}
	if ProfileOf(BestSellers).DB != DBJoin {
		t.Error("Best Sellers should join")
	}
}

func TestProfileOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad interaction")
		}
	}()
	ProfileOf(Interaction(99))
}

func TestSamplerMatchesMix(t *testing.T) {
	for _, w := range Workloads() {
		s := NewSampler(w, rng.New(uint64(w)+1))
		var counts [NumInteractions]int
		const n = 300000
		for i := 0; i < n; i++ {
			counts[s.Next()]++
		}
		m := Mix(w)
		for i, want := range m {
			got := float64(counts[i]) / n * 100
			// Within 0.35 percentage points of Table 1.
			if math.Abs(got-want) > 0.35 {
				t.Errorf("%v %v: sampled %.2f%%, want %.2f%%", w, Interaction(i), got, want)
			}
		}
	}
}

func TestSamplerSetWorkloadSwitchesMix(t *testing.T) {
	s := NewSampler(Browsing, rng.New(3))
	s.SetWorkload(Ordering)
	orders := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Next().Class() == ClassOrder {
			orders++
		}
	}
	share := float64(orders) / n
	if math.Abs(share-0.5) > 0.01 {
		t.Fatalf("after switch order share = %v, want 0.5", share)
	}
}

func TestPageGenRespectProfiles(t *testing.T) {
	cat := webobj.NewCatalog(1000, 1)
	g := NewPageGen(cat, rng.New(5))
	for i := 0; i < 500; i++ {
		for it := 0; it < NumInteractions; it++ {
			pr := g.Page(Interaction(it), 0)
			p := ProfileOf(Interaction(it))
			if len(pr.Images) != p.Images {
				t.Fatalf("%v: %d images, want %d", Interaction(it), len(pr.Images), p.Images)
			}
			if p.Static && pr.HTML.Kind != webobj.KindStatic {
				t.Fatalf("%v: HTML kind %v, want static", Interaction(it), pr.HTML.Kind)
			}
			if !p.Static && pr.HTML.Kind != webobj.KindDynamic {
				t.Fatalf("%v: HTML kind %v, want dynamic", Interaction(it), pr.HTML.Kind)
			}
			for _, img := range pr.Images {
				if img.Kind != webobj.KindImage {
					t.Fatalf("%v: embedded object kind %v, want image", Interaction(it), img.Kind)
				}
			}
		}
	}
}

// fakeSite completes every request after a fixed simulated latency.
type fakeSite struct {
	eng     *simnet.Engine
	latency float64
	fail    bool
	seen    int
}

func (f *fakeSite) Request(pr PageRequest, done func(bool)) {
	f.seen++
	f.eng.Schedule(f.latency, func() { done(!f.fail) })
}

func TestDriverGeneratesLoad(t *testing.T) {
	eng := &simnet.Engine{}
	site := &fakeSite{eng: eng, latency: 0.1}
	cat := webobj.NewCatalog(1000, 1)
	d := NewDriver(eng, site, cat, DriverOptions{Browsers: 20, Workload: Shopping, ThinkMean: 1, Seed: 1})
	d.Start()
	eng.RunUntil(100)
	c := d.Counters()
	if c.Total() == 0 {
		t.Fatal("no interactions completed")
	}
	// 20 EBs, ~1.1s per cycle → ≈ 1800 interactions in 100s.
	if c.Total() < 1000 || c.Total() > 2600 {
		t.Fatalf("completed = %d, want ≈1800", c.Total())
	}
	wips := c.WIPS(100)
	if wips < 10 || wips > 26 {
		t.Fatalf("WIPS = %v", wips)
	}
	// Shopping mix: ~80% browse.
	share := float64(c.Browse) / float64(c.Total())
	if math.Abs(share-0.8) > 0.05 {
		t.Fatalf("browse share = %v, want ~0.8", share)
	}
}

func TestDriverErrorsCounted(t *testing.T) {
	eng := &simnet.Engine{}
	site := &fakeSite{eng: eng, latency: 0.1, fail: true}
	cat := webobj.NewCatalog(500, 1)
	d := NewDriver(eng, site, cat, DriverOptions{Browsers: 5, ThinkMean: 1, Seed: 2})
	d.Start()
	eng.RunUntil(20)
	c := d.Counters()
	if c.Total() != 0 || c.Errors == 0 {
		t.Fatalf("counters = %+v, want only errors", c)
	}
	if c.ErrorRate() != 1 {
		t.Fatalf("ErrorRate = %v, want 1", c.ErrorRate())
	}
}

func TestDriverStopHaltsTraffic(t *testing.T) {
	eng := &simnet.Engine{}
	site := &fakeSite{eng: eng, latency: 0.1}
	cat := webobj.NewCatalog(500, 1)
	d := NewDriver(eng, site, cat, DriverOptions{Browsers: 5, ThinkMean: 0.5, Seed: 3})
	d.Start()
	eng.RunUntil(10)
	d.Stop()
	seenAtStop := site.seen
	eng.RunUntil(30)
	// In-flight interactions may finish, but no new ones are issued after
	// each browser's current cycle ends.
	if site.seen > seenAtStop+5 {
		t.Fatalf("traffic continued after Stop: %d → %d", seenAtStop, site.seen)
	}
	if d.Running() {
		t.Fatal("Running() true after Stop")
	}
}

func TestDriverSetWorkloadMidRun(t *testing.T) {
	eng := &simnet.Engine{}
	site := &fakeSite{eng: eng, latency: 0.01}
	cat := webobj.NewCatalog(500, 1)
	d := NewDriver(eng, site, cat, DriverOptions{Browsers: 50, Workload: Browsing, ThinkMean: 0.2, Seed: 4})
	d.Start()
	eng.RunUntil(50)
	d.ResetCounters()
	d.SetWorkload(Ordering)
	if d.Workload() != Ordering {
		t.Fatal("workload not switched")
	}
	eng.RunUntil(150)
	c := d.Counters()
	share := float64(c.Order) / float64(c.Total())
	if math.Abs(share-0.5) > 0.05 {
		t.Fatalf("order share after switch = %v, want ~0.5", share)
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() Counters {
		eng := &simnet.Engine{}
		site := &fakeSite{eng: eng, latency: 0.05}
		cat := webobj.NewCatalog(500, 9)
		d := NewDriver(eng, site, cat, DriverOptions{Browsers: 10, ThinkMean: 1, Seed: 11})
		d.Start()
		eng.RunUntil(50)
		return d.Counters()
	}
	if run() != run() {
		t.Fatal("driver not deterministic for fixed seed")
	}
}

func TestCountersHelpers(t *testing.T) {
	var c Counters
	if c.WIPS(10) != 0 || c.ErrorRate() != 0 || c.WIPS(0) != 0 {
		t.Fatal("zero counters should yield zeros")
	}
	c.Browse = 80
	c.Order = 20
	c.Errors = 25
	if c.Total() != 100 {
		t.Fatal("Total wrong")
	}
	if c.WIPS(50) != 2 {
		t.Fatalf("WIPS = %v, want 2", c.WIPS(50))
	}
	if c.ErrorRate() != 0.2 {
		t.Fatalf("ErrorRate = %v, want 0.2", c.ErrorRate())
	}
}

func BenchmarkSamplerNext(b *testing.B) {
	s := NewSampler(Shopping, rng.New(1))
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkPageGen(b *testing.B) {
	cat := webobj.NewCatalog(10000, 1)
	g := NewPageGen(cat, rng.New(1))
	s := NewSampler(Shopping, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Page(s.Next(), i%100)
	}
}

func TestDriverSessionMode(t *testing.T) {
	eng := &simnet.Engine{}
	site := &fakeSite{eng: eng, latency: 0.02}
	cat := webobj.NewCatalog(500, 1)
	d := NewDriver(eng, site, cat, DriverOptions{
		Browsers: 40, Workload: Ordering, ThinkMean: 0.2, Seed: 6, Sessions: true,
	})
	d.Start()
	eng.RunUntil(400)
	c := d.Counters()
	if c.Total() == 0 {
		t.Fatal("no traffic in session mode")
	}
	// Long-run class split still matches Table 1 (50/50 for ordering).
	share := float64(c.Order) / float64(c.Total())
	if math.Abs(share-0.5) > 0.03 {
		t.Fatalf("session-mode order share = %v, want ~0.5", share)
	}
	// Workload switches propagate to sessions.
	d.ResetCounters()
	d.SetWorkload(Browsing)
	eng.RunUntil(800)
	c = d.Counters()
	share = float64(c.Order) / float64(c.Total())
	if share > 0.1 {
		t.Fatalf("after switch order share = %v, want ~0.05", share)
	}
}

func TestDriverResponseTimesRecorded(t *testing.T) {
	eng := &simnet.Engine{}
	site := &fakeSite{eng: eng, latency: 0.25}
	cat := webobj.NewCatalog(500, 1)
	d := NewDriver(eng, site, cat, DriverOptions{Browsers: 5, ThinkMean: 1, Seed: 7})
	d.Start()
	eng.RunUntil(60)
	rt := d.ResponseTimes()
	if rt.Mean() == 0 {
		t.Fatal("no response times recorded")
	}
	if m := rt.Mean(); math.Abs(m-0.25) > 1e-9 {
		t.Fatalf("mean response = %v, want 0.25 (fixed latency)", m)
	}
	d.ResetCounters()
	if d.ResponseTimes().Mean() != 0 {
		t.Fatal("response times survived ResetCounters")
	}
}
