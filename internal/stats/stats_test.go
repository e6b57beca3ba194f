package stats

import (
	"math"
	"testing"
	"testing/quick"

	"webharmony/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEqual(r.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if !almostEqual(r.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %v, want 40", r.Sum())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 || r.CI95() != 0 {
		t.Fatal("empty Running should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 {
		t.Fatalf("single-observation variance = %v, want 0", r.Variance())
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Fatal("single-observation min/max wrong")
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(2)
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 {
		t.Fatal("Reset did not clear accumulator")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(100)
		var all, a, b Running
		for i := 0; i < n; i++ {
			v := src.Normal(10, 5)
			all.Add(v)
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almostEqual(a.Mean(), all.Mean(), 1e-9) &&
			almostEqual(a.Variance(), all.Variance(), 1e-6) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("Median = %v, want 50.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("P100 = %v, want 100", got)
	}
	if got := s.Percentile(95); got < 94 || got > 97 {
		t.Fatalf("P95 = %v, want ~95", got)
	}
}

func TestSampleEmptyPercentile(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty Sample should report zeros")
	}
}

func TestSamplePercentileAfterInterleavedAdds(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(3)       // invalidates sort
	if got := s.Median(); got != 3 {
		t.Fatalf("Median after re-add = %v, want 3", got)
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatalf("empty Sample: N=%d Mean=%v StdDev=%v, want zeros", s.N(), s.Mean(), s.StdDev())
	}
	s.Add(3)
	if s.N() != 1 || s.Mean() != 3 || s.StdDev() != 0 {
		t.Fatalf("n=1 Sample: N=%d Mean=%v StdDev=%v, want 1, 3, 0", s.N(), s.Mean(), s.StdDev())
	}
	for _, v := range []float64{9, 4, 4, 5, 5, 7, 2} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 39.0/8, 1e-12) {
		t.Fatalf("Mean = %v, want %v", s.Mean(), 39.0/8)
	}
	// Sum of squared deviations from 4.875 is 34.875.
	if want := math.Sqrt(34.875 / 7); !almostEqual(s.StdDev(), want, 1e-12) {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

func TestMeanStdDevOf(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(MeanOf(vs), 5, 1e-12) {
		t.Fatal("MeanOf wrong")
	}
	if !almostEqual(StdDevOf(vs), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatal("StdDevOf wrong")
	}
	if MeanOf(nil) != 0 || StdDevOf(nil) != 0 || StdDevOf([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestFractionAbove(t *testing.T) {
	vs := []float64{1, 2, 3, 4}
	if got := FractionAbove(vs, 2); got != 0.5 {
		t.Fatalf("FractionAbove = %v, want 0.5", got)
	}
	if FractionAbove(nil, 0) != 0 {
		t.Fatal("FractionAbove(nil) != 0")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 116); !almostEqual(got, 0.16, 1e-12) {
		t.Fatalf("Improvement = %v, want 0.16", got)
	}
	if Improvement(0, 10) != 0 {
		t.Fatal("Improvement with zero baseline should be 0")
	}
	if got := Improvement(100, 90); !almostEqual(got, -0.10, 1e-12) {
		t.Fatalf("negative Improvement = %v, want -0.10", got)
	}
}

func TestRunningStringFormat(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(3)
	if got := r.String(); got != "2.00 ± 1.41 (n=2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := rng.New(99)
	var small, large Running
	for i := 0; i < 10; i++ {
		small.Add(src.Normal(0, 1))
	}
	for i := 0; i < 1000; i++ {
		large.Add(src.Normal(0, 1))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
}
