package simplex

import (
	"math"
	"testing"
	"testing/quick"

	"webharmony/internal/param"
	"webharmony/internal/rng"
)

func space2D() *param.Space {
	return param.MustSpace(
		param.Def{Name: "x", Min: 0, Max: 200, Default: 20, Step: 1},
		param.Def{Name: "y", Min: 0, Max: 200, Default: 180, Step: 1},
	)
}

// bowl is a convex quadratic with minimum at (tx, ty).
func bowl(tx, ty float64) func(param.Config) float64 {
	return func(c param.Config) float64 {
		dx := float64(c[0]) - tx
		dy := float64(c[1]) - ty
		return dx*dx + 2*dy*dy
	}
}

// drive runs n Ask/Tell cycles of t against f and returns the cheapest
// configuration it told (the first one on ties) and its cost.
func drive(t Tuner, f func(param.Config) float64, n int) (param.Config, float64) {
	var best param.Config
	bestCost := math.Inf(1)
	for i := 0; i < n; i++ {
		cfg := t.Ask()
		cost := f(cfg)
		t.Tell(cost)
		if cost < bestCost {
			best, bestCost = cfg.Clone(), cost
		}
	}
	return best, bestCost
}

func TestNelderMeadFindsBowlMinimum(t *testing.T) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	f := bowl(120, 60)
	best, cost := drive(nm, f, 200)
	if cost > 100 { // within 10 units of the optimum in each dim
		t.Fatalf("best cost %v at %v, want near 0 at (120,60)", cost, best)
	}
}

func TestNelderMeadBeatsRandomOnBowl(t *testing.T) {
	sp := space2D()
	f := bowl(77, 133)
	nm := NewNelderMead(sp, Options{Seed: 1})
	rs := NewRandomSearch(sp, 1)
	_, nmCost := drive(nm, f, 60)
	_, rsCost := drive(rs, f, 60)
	if nmCost > rsCost {
		t.Fatalf("simplex (%v) did not beat random (%v) in 60 evals", nmCost, rsCost)
	}
}

func TestNelderMeadProposalsAlwaysFeasible(t *testing.T) {
	sp := param.MustSpace(
		param.Def{Name: "a", Min: 5, Max: 250, Default: 10, Step: 5},
		param.Def{Name: "b", Min: 0, Max: 7, Default: 3, Step: 1},
		param.Def{Name: "c", Min: 1000, Max: 100000, Default: 2000, Step: 512},
	)
	f := func(seed uint64) bool {
		nm := NewNelderMead(sp, Options{Seed: seed})
		src := rng.New(seed)
		for i := 0; i < 100; i++ {
			cfg := nm.Ask()
			if !sp.Feasible(cfg) {
				return false
			}
			nm.Tell(src.Float64() * 100) // noisy landscape
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNelderMeadInitialEvalsCoverSimplex(t *testing.T) {
	// Tuning n parameters requires exploring n+1 configurations before the
	// first reflection (the paper's scalability bottleneck).
	sp := param.MustSpace(
		param.Def{Name: "a", Min: 0, Max: 100, Default: 50, Step: 1},
		param.Def{Name: "b", Min: 0, Max: 100, Default: 50, Step: 1},
		param.Def{Name: "c", Min: 0, Max: 100, Default: 50, Step: 1},
	)
	nm := NewNelderMead(sp, Options{})
	seen := map[string]bool{}
	for i := 0; i < sp.Len()+1; i++ {
		cfg := nm.Ask()
		seen[cfg.Key()] = true
		nm.Tell(1)
	}
	if len(seen) < sp.Len()+1 {
		t.Fatalf("initial simplex proposed only %d distinct configs, want %d", len(seen), sp.Len()+1)
	}
}

func TestNelderMeadFirstProposalIsDefault(t *testing.T) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	first := nm.Ask()
	if !first.Equal(sp.DefaultConfig()) {
		t.Fatalf("first proposal %v, want default %v", first, sp.DefaultConfig())
	}
}

func TestNelderMeadProtocolPanics(t *testing.T) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Tell before Ask did not panic")
			}
		}()
		nm.Tell(1)
	}()
	nm.Ask()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Ask did not panic")
			}
		}()
		nm.Ask()
	}()
}

func TestNelderMeadReset(t *testing.T) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	best, _ := drive(nm, bowl(120, 60), 50)
	nm.Reset(best)
	if nm.haveBest {
		t.Fatal("best cost not cleared after Reset")
	}
	// After reset the search re-anchors near `best`.
	first := nm.Ask()
	if !first.Equal(best) {
		t.Fatalf("first proposal after Reset = %v, want anchor %v", first, best)
	}
	f := bowl(20, 20)
	nm.Tell(f(first))
	// And it can keep improving toward a new optimum.
	_, cost := drive(nm, f, 100)
	if cost > 2000 {
		t.Fatalf("after reset+retune cost = %v, want near new optimum", cost)
	}
}

func TestNelderMeadResetWithOutstandingAsk(t *testing.T) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	nm.Ask()
	nm.Reset(sp.DefaultConfig()) // must not panic
	cfg := nm.Ask()              // protocol restarts cleanly
	if !sp.Feasible(cfg) {
		t.Fatal("infeasible proposal after mid-flight Reset")
	}
}

func TestNelderMeadConvergesOnConstantFunction(t *testing.T) {
	sp := param.MustSpace(param.Def{Name: "a", Min: 0, Max: 10, Default: 5, Step: 1})
	nm := NewNelderMead(sp, Options{})
	flat := func(param.Config) float64 { return 1 }
	drive(nm, flat, 300) // repeated shrinks collapse the simplex
	// Collapsed, every vertex rounds to one configuration, so every
	// proposal is that configuration.
	first := nm.Ask()
	nm.Tell(1)
	for i := 0; i < 10; i++ {
		if cfg := nm.Ask(); !cfg.Equal(first) {
			t.Fatalf("simplex did not collapse on a flat landscape in 300 evals: proposed %v after %v", cfg, first)
		}
		nm.Tell(1)
	}
}

func TestNelderMeadGuardKeepsProposalsOffBoundary(t *testing.T) {
	sp := param.MustSpace(
		param.Def{Name: "a", Min: 0, Max: 1000, Default: 500, Step: 1},
		param.Def{Name: "b", Min: 0, Max: 1000, Default: 500, Step: 1},
	)
	// Steep landscape pushing toward the (0,0) corner: unguarded NM jumps
	// straight to extremes.
	f := func(c param.Config) float64 { return float64(c[0] + c[1]) }
	guarded := NewNelderMead(sp, Options{GuardFactor: 0.3, Seed: 5})
	extremes := 0
	for i := 0; i < 40; i++ {
		cfg := guarded.Ask()
		if cfg[0] == 0 || cfg[1] == 0 {
			extremes++
		}
		guarded.Tell(f(cfg))
	}
	unguarded := NewNelderMead(sp, Options{Seed: 5})
	extremesU := 0
	for i := 0; i < 40; i++ {
		cfg := unguarded.Ask()
		if cfg[0] == 0 || cfg[1] == 0 {
			extremesU++
		}
		unguarded.Tell(f(cfg))
	}
	if extremes >= extremesU {
		t.Fatalf("guard did not reduce extreme-value proposals: guarded=%d unguarded=%d", extremes, extremesU)
	}
}

func TestNelderMeadEvaluationsCount(t *testing.T) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	drive(nm, bowl(1, 1), 17)
	if nm.Evaluations() != 17 {
		t.Fatalf("Evaluations = %d, want 17", nm.Evaluations())
	}
}

func TestRandomSearchFirstIsDefault(t *testing.T) {
	sp := space2D()
	rs := NewRandomSearch(sp, 9)
	if !rs.Ask().Equal(sp.DefaultConfig()) {
		t.Fatal("random search should measure the default first")
	}
	rs.Tell(5)
	if !rs.haveBest || rs.bestCost != 5 {
		t.Fatal("best cost not tracked")
	}
}

func TestRandomSearchFeasibility(t *testing.T) {
	sp := param.MustSpace(
		param.Def{Name: "a", Min: 3, Max: 33, Default: 3, Step: 3},
	)
	rs := NewRandomSearch(sp, 2)
	for i := 0; i < 200; i++ {
		if cfg := rs.Ask(); !sp.Feasible(cfg) {
			t.Fatalf("infeasible random proposal %v", cfg)
		}
		rs.Tell(0)
	}
}

func TestCoordinateSearchDescendsBowl(t *testing.T) {
	sp := space2D()
	cs := NewCoordinateSearch(sp, 0)
	_, cost := drive(cs, bowl(100, 100), 300)
	if cost > 500 {
		t.Fatalf("coordinate search cost = %v, want < 500", cost)
	}
}

func TestCoordinateSearchConvergence(t *testing.T) {
	sp := param.MustSpace(param.Def{Name: "a", Min: 0, Max: 100, Default: 50, Step: 10})
	cs := NewCoordinateSearch(sp, 0)
	// Converged: the probe step has fallen below one lattice level.
	converged := func() bool { return cs.step[0]*100 < 10 }
	for i := 0; i < 500 && !converged(); i++ {
		cfg := cs.Ask()
		cs.Tell(math.Abs(float64(cfg[0]) - 50))
	}
	if !converged() {
		t.Fatal("coordinate search did not converge in 500 evals")
	}
}

func TestCoordinateSearchReset(t *testing.T) {
	sp := space2D()
	cs := NewCoordinateSearch(sp, 0)
	drive(cs, bowl(10, 10), 50)
	anchor := param.Config{150, 150}
	cs.Reset(anchor)
	first := cs.Ask()
	if !first.Equal(anchor) {
		t.Fatalf("first proposal after Reset = %v, want %v", first, anchor)
	}
}

func TestTunersDeterministicGivenSeed(t *testing.T) {
	sp := space2D()
	f := bowl(42, 42)
	run := func() []string {
		nm := NewNelderMead(sp, Options{Seed: 77})
		var keys []string
		for i := 0; i < 30; i++ {
			cfg := nm.Ask()
			keys = append(keys, cfg.Key())
			nm.Tell(f(cfg))
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at eval %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestNelderMeadHighDimensional(t *testing.T) {
	// 24 parameters, like Table 3.
	defs := make([]param.Def, 24)
	for i := range defs {
		defs[i] = param.Def{Name: string(rune('a' + i)), Min: 0, Max: 1000, Default: 500, Step: 1}
	}
	sp := param.MustSpace(defs...)
	nm := NewNelderMead(sp, Options{})
	f := func(c param.Config) float64 {
		s := 0.0
		for _, v := range c {
			d := float64(v) - 300
			s += d * d
		}
		return s
	}
	defCost := f(sp.DefaultConfig())
	_, cost := drive(nm, f, 200)
	if cost >= defCost {
		t.Fatalf("no improvement over default in 24-D: %v >= %v", cost, defCost)
	}
}

func BenchmarkNelderMeadAskTell(b *testing.B) {
	sp := space2D()
	nm := NewNelderMead(sp, Options{})
	f := bowl(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := nm.Ask()
		nm.Tell(f(cfg))
	}
}

func BenchmarkNelderMead24D(b *testing.B) {
	defs := make([]param.Def, 24)
	for i := range defs {
		defs[i] = param.Def{Name: string(rune('a' + i)), Min: 0, Max: 1000, Default: 500, Step: 1}
	}
	sp := param.MustSpace(defs...)
	nm := NewNelderMead(sp, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := nm.Ask()
		nm.Tell(float64(cfg[0]))
	}
}
