package main

import (
	"math"
	"math/rand"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The reference values are Python's statistics.median and
// statistics.quantiles(xs, n=4), which the benchmark's spread rule uses.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.9, 3.0}, 2.9, 3.0, 3.1},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1.5, 2.5, 2.5, 9, 0.1, 7, 3.3}, 1.5, 2.5, 7},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: q1 %g median %g q3 %g, want %g %g %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestUSHistInterpolatesWithinBucket(t *testing.T) {
	h := newUSHist(100)
	for _, us := range []float64{10.1, 10.9, 10.5, 10.2, 12.7, 250, 300} {
		h.observe(time.Duration(us * float64(time.Microsecond)))
	}
	// Ranks 1-4 sit in bucket [10, 11): the k-th of 4 reads 10+(k-0.5)/4.
	for _, c := range []struct{ p, want float64 }{
		{1, 10.125}, {50, 10.875}, {58, 12.5}, {85, 250}, {100, 300},
	} {
		if got := h.quantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	var empty usHist
	if !math.IsNaN(empty.quantile(50)) {
		t.Error("quantile of an empty histogram is not NaN")
	}
}

// At whole-microsecond resolution a histogram quantile is the exact
// nearest-rank percentile of the samples, merged or not.
func TestUSHistMatchesExactPercentiles(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	a, b := newUSHist(histRangeUS), newUSHist(histRangeUS)
	var us []float64
	for i := 0; i < 5000; i++ {
		d := time.Duration(rnd.ExpFloat64() * 40 * float64(time.Microsecond))
		if i%500 == 0 {
			d = time.Duration(150+i) * time.Millisecond // beyond the bucketed range
		}
		us = append(us, math.Floor(float64(d)/float64(time.Microsecond)))
		if i%2 == 0 {
			a.observe(d)
		} else {
			b.observe(d)
		}
	}
	a.merge(b)
	for _, p := range []float64{1, 25, 50, 90, 95, 99, 99.9, 100} {
		if got, want := math.Floor(a.quantile(p)), percentile(us, p); got != want {
			t.Errorf("p%g: histogram %g µs, samples %g µs", p, got, want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmark("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
	}
	same := func(kind string, got, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounds && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %g (setup_s must hold the largest bound, at most 0.25)", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" {
		t.Error("setup_s must be the first end-to-end metric")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 102, 99}, "lower", "within bound"},
		{"slower", []float64{115, 116, 114}, "lower", "worse"},
		{"faster", []float64{85, 86, 84}, "lower", "better"},
		{"higher is better, dropped", []float64{85, 86, 84}, "higher", "worse"},
		{"just inside", []float64{109, 109, 109}, "lower", "within bound"},
		{"noisy", []float64{60, 100, 140}, "lower", "unresolved"},
		{"empty", nil, "lower", "missing"},
	} {
		if got := verdict(steady, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
