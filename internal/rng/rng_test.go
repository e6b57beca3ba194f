package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(1) // same salt, later parent state
	c3 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("repeated splits with the same salt produced identical streams")
	}
	if c1.Uint64() == c3.Uint64() {
		t.Fatal("splits with different salts produced identical draws")
	}
}

func TestTaskSeedPureAndDistinct(t *testing.T) {
	// Pure: the same (base, task) always derives the same seed, regardless
	// of call order — the property parallel fan-outs rely on.
	if TaskSeed(7, 3) != TaskSeed(7, 3) {
		t.Error("TaskSeed is not a pure function")
	}
	// Distinct across tasks and bases, and never the base itself.
	seen := map[uint64][2]uint64{}
	for base := uint64(0); base < 8; base++ {
		for task := uint64(0); task < 64; task++ {
			s := TaskSeed(base, task)
			if s == base {
				t.Errorf("TaskSeed(%d, %d) returned the base seed", base, task)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("TaskSeed collision: (%d,%d) and (%d,%d) -> %d",
					base, task, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{base, task}
		}
	}
}

func TestTaskSeedStreamsDiverge(t *testing.T) {
	// Streams seeded from adjacent tasks must decorrelate immediately.
	a := New(TaskSeed(1, 0))
	b := New(TaskSeed(1, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent task streams shared %d of 64 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const n = 200000
	const mean = 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestParetoBounds(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		v := s.Pareto(100, 1.5)
		if v < 100 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(23)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestZipfRange(t *testing.T) {
	s := New(29)
	z := NewZipf(s, 1000, 0.9)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r >= 1000 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 10000, 0.99)
	const n = 100000
	top10 := 0
	for i := 0; i < n; i++ {
		if z.Next() < 10 {
			top10++
		}
	}
	// With theta≈1 over 10k items the top 10 ranks should capture a large
	// share (harmonic ratio ≈ H(10)/H(10000) ≈ 0.3).
	share := float64(top10) / n
	if share < 0.15 || share > 0.45 {
		t.Fatalf("Zipf top-10 share = %v, want heavy skew in [0.15,0.45]", share)
	}
}

func TestZipfMonotonePopularity(t *testing.T) {
	s := New(37)
	z := NewZipf(s, 100, 0.8)
	counts := make([]int, 100)
	for i := 0; i < 500000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should be drawn noticeably more often than rank 50.
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: count[0]=%d count[50]=%d", counts[0], counts[50])
	}
	if counts[0] <= counts[99] {
		t.Fatalf("Zipf not skewed: count[0]=%d count[99]=%d", counts[0], counts[99])
	}
}

func TestZipfPanics(t *testing.T) {
	cases := []struct {
		n     uint64
		theta float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, -1}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.theta)
				}
			}()
			NewZipf(New(1), c.n, c.theta)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + int(seed%64)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWithinBounds(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		lo, hi := -3.0, 7.0
		for i := 0; i < 100; i++ {
			v := s.Uniform(lo, hi)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(41)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkZipfNext(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 100000, 0.9)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = z.Next()
	}
	_ = sink
}
