package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		vs   []float64
		want Summary
	}{
		{
			// mean 5, variance 32/7, CI95 = t(7)·σ/√8 with t(7) = 2.365.
			name: "hand-computed-eight",
			vs:   []float64{2, 4, 4, 4, 5, 5, 7, 9},
			want: Summary{
				N: 8, Mean: 5,
				StdDev: math.Sqrt(32.0 / 7.0),
				CI95:   2.365 * math.Sqrt(32.0/7.0) / math.Sqrt(8),
			},
		},
		{
			// Two observations: σ = √2, CI95 = t(1)·√2/√2 = 12.706.
			name: "two-values",
			vs:   []float64{1, 3},
			want: Summary{N: 2, Mean: 2, StdDev: math.Sqrt2, CI95: 12.706},
		},
		{
			// R = 1: a single replicate has no spread estimate.
			name: "single-replicate",
			vs:   []float64{42},
			want: Summary{N: 1, Mean: 42},
		},
		{
			name: "zero-variance",
			vs:   []float64{5, 5, 5, 5},
			want: Summary{N: 4, Mean: 5},
		},
		{
			// Non-finite replicates are skipped, not propagated.
			name: "nan-guard",
			vs:   []float64{1, nan, 3, inf, -inf},
			want: Summary{N: 2, Mean: 2, StdDev: math.Sqrt2, CI95: 12.706},
		},
		{name: "empty", vs: nil, want: Summary{}},
		{name: "all-nan", vs: []float64{nan, nan}, want: Summary{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(tc.vs)
			if got.N != tc.want.N {
				t.Errorf("N = %d, want %d", got.N, tc.want.N)
			}
			approx := func(name string, got, want float64) {
				if math.IsNaN(got) || math.Abs(got-want) > 1e-9 {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}
			approx("Mean", got.Mean, tc.want.Mean)
			approx("StdDev", got.StdDev, tc.want.StdDev)
			approx("CI95", got.CI95, tc.want.CI95)
		})
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0}, {-3, 0},
		{1, 12.706}, {2, 4.303}, {5, 2.571}, {7, 2.365},
		{30, 2.042}, {31, 1.96}, {1000, 1.96},
	}
	for _, tc := range cases {
		if got := TCritical95(tc.df); got != tc.want {
			t.Errorf("TCritical95(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 3})
	if got, want := s.String(), "2.00 ± 1.41 (95% CI ±12.71, n=2)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
