package stats

import (
	"math"
	"testing"
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
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatal("empty Running should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 {
		t.Fatalf("single-observation variance = %v, want 0", r.Variance())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("P50 = %v, want 50.5", got)
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
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty Sample should report zeros")
	}
}

func TestSamplePercentileAfterInterleavedAdds(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Percentile(50) // forces sort
	s.Add(3)             // invalidates sort
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("P50 after re-add = %v, want 3", got)
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	if s.Mean() != 0 {
		t.Fatalf("empty Sample: Mean=%v, want 0", s.Mean())
	}
	s.Add(3)
	if s.Mean() != 3 {
		t.Fatalf("n=1 Sample: Mean=%v, want 3", s.Mean())
	}
	for _, v := range []float64{9, 4, 4, 5, 5, 7, 2} {
		s.Add(v)
	}
	if len(s.data) != 8 {
		t.Fatalf("N = %d, want 8", len(s.data))
	}
	if !almostEqual(s.Mean(), 39.0/8, 1e-12) {
		t.Fatalf("Mean = %v, want %v", s.Mean(), 39.0/8)
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
