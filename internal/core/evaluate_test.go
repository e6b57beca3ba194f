package core

import (
	"math"
	"reflect"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/proxy"
	"webharmony/internal/tpcw"
)

// TestEvalConfigPure checks the hermetic contract directly: the same
// assignment measured from two different labs — one of which has run
// other evaluations in between — yields bit-identical measurements, the
// calling lab's engine never runs, and the staged assignment (not the
// calling lab's) is what gets measured.
//
// The evaluation in between dirties every store a finished evaluation
// recycles (DESIGN.md §10): another workload, so other pages, objects and
// request records; store_objects_per_bucket at 5, so the largest proxy
// directory, which the repeated evaluation's smaller one is cut from;
// and a 512 MB cache_mem that admits every object to memory. Its catalog
// draws its sizes under another seed. The repeated evaluation runs on
// that storage, so a store released without its clear measures
// differently.
func TestEvalConfigPure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := TinyLab()
	nodeCfgs := layoutOf(cfg).expand(DefaultConfigs())

	a := NewLab(cfg, tpcw.Shopping)
	m1 := a.EvalConfig(tpcw.Shopping, nodeCfgs, "first")
	if m1.WIPS <= 0 {
		t.Fatalf("WIPS = %v, want > 0", m1.WIPS)
	}
	if now := a.Sys.Eng.Now(); now != 0 {
		t.Fatalf("EvalConfig advanced the calling lab's engine to %v", now)
	}

	b := NewLab(cfg, tpcw.Shopping)
	noise := layoutOf(cfg).expand(DefaultConfigs())
	sp := proxy.Space()
	dirty := sp.DefaultConfig()
	dirty[sp.IndexOf(proxy.ParamObjectsPerBucket)] = 5
	dirty[sp.IndexOf(proxy.ParamCacheMem)] = 512
	dirty[sp.IndexOf(proxy.ParamMaxObjectSizeMem)] = 4096
	for _, n := range b.Sys.Cluster.TierNodes(cluster.TierProxy) {
		noise[n.ID()] = dirty
	}
	b.EvalConfig(tpcw.Ordering, noise, "noise") // unrelated evaluation in between
	m2 := b.EvalConfig(tpcw.Shopping, nodeCfgs, "second")

	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("evaluation depends on lab history:\n%+v\n%+v", m1, m2)
	}

	// A recognizably non-default value on one node.
	tier := a.Tiers()[0]
	node := tier.Nodes[0]
	other := tier.Space.DefaultConfig()
	other[0] = tier.Space.Def(0).Min
	alt := layoutOf(cfg).expand(DefaultConfigs())
	alt[node] = other
	if m3 := a.EvalConfig(tpcw.Shopping, alt, "alt"); reflect.DeepEqual(m1, m3) {
		t.Fatalf("a non-default assignment measured exactly like the default one: %+v", m3)
	}
}

// TestMeasureConfigWindowsIdentical pins the DESIGN.md §10 deviation:
// repeated windows of one configuration are exact repeats, so the series
// is constant within a run (variance lives across replicates).
func TestMeasureConfigWindowsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	lab := NewLab(TinyLab(), tpcw.Shopping)
	series := lab.MeasureConfig(DefaultConfigs(), 3)
	if len(series) != 3 {
		t.Fatalf("len = %d, want 3", len(series))
	}
	for i, v := range series {
		if v != series[0] {
			t.Fatalf("window %d = %v, differs from window 0 = %v", i, v, series[0])
		}
	}
}

// TestTuneWorkloadCacheTransparent checks the memo cache's core promise:
// the full §III.A experiment produces identical results with and without
// a cache attached, and the cache actually absorbs repeat evaluations.
func TestTuneWorkloadCacheTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := TinyLab()
	const iters, baseIters = 12, 3
	opts := harmony.Options{Seed: 1}

	plain := TuneWorkload(cfg, tpcw.Shopping, iters, baseIters, opts)

	cached := cfg
	cached.EvalCache = evalcache.New()
	memo := TuneWorkload(cached, tpcw.Shopping, iters, baseIters, opts)

	if !reflect.DeepEqual(plain, memo) {
		t.Fatalf("cache changed the experiment:\nplain %+v\nmemo  %+v", plain, memo)
	}
	s := cached.EvalCache.Stats()
	if s.Lookups != iters+baseIters {
		t.Fatalf("lookups = %d, want %d (every evaluation must consult the cache)", s.Lookups, iters+baseIters)
	}
	if s.Hits == 0 {
		t.Fatal("no hits: repeated baseline windows alone must hit")
	}
	if s.Misses+s.Hits != s.Lookups || s.Entries != s.Misses {
		t.Fatalf("inconsistent stats: %+v", s)
	}
}

// TestRunTable4SmallIters is the regression test for the baseline window
// arithmetic: iters/4 rounds to zero below four iterations, which used
// to produce an empty baseline series and NaN means in every improvement
// column. The clamp guarantees at least one window.
func TestRunTable4SmallIters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := RunTable4(TinyLab(), 2, harmony.Options{Seed: 1})
	base := res.Rows[0]
	if base.Method != "none" {
		t.Fatalf("row 0 method = %q, want none", base.Method)
	}
	if math.IsNaN(base.WIPS) || base.WIPS <= 0 {
		t.Fatalf("baseline WIPS = %v with iters=2, want a positive measurement", base.WIPS)
	}
	for _, row := range res.Rows[1:] {
		if math.IsNaN(row.Improvement) {
			t.Fatalf("method %s improvement is NaN", row.Method)
		}
	}
}

// TestFigure5SharesEvalCache checks the speculative engine consults the
// same memo table as the sequential runners: a second identical run on a
// shared cache performs no new simulations.
func TestFigure5SharesEvalCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := TinyLab()
	cache := evalcache.New()
	cfg.EvalCache = cache
	seq := []tpcw.Workload{tpcw.Browsing, tpcw.Ordering}
	opts := harmony.Options{Seed: 1}

	first := RunFigure5(cfg, seq, 6, 2, opts)
	after := cache.Stats()
	if after.Misses == 0 {
		t.Fatal("figure5 bypassed the cache entirely")
	}
	second := RunFigure5(cfg, seq, 6, 2, opts)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm rerun diverged:\n%+v\n%+v", first, second)
	}
	if s := cache.Stats(); s.Misses != after.Misses {
		t.Fatalf("warm rerun simulated %d new evaluations, want 0", s.Misses-after.Misses)
	}
}
