package simplex

import (
	"testing"
	"testing/quick"

	"webharmony/internal/param"
	"webharmony/internal/rng"
)

func TestAnnealingFindsBowlMinimum(t *testing.T) {
	sp := space2D()
	sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: 1})
	f := bowl(130, 70)
	defCost := f(sp.DefaultConfig())
	drive(sa, f, 300)
	_, cost, ok := sa.Best()
	if !ok || cost >= defCost {
		t.Fatalf("no improvement: %v vs default %v", cost, defCost)
	}
	if cost > 2000 {
		t.Fatalf("cost %v far from optimum", cost)
	}
}

func TestAnnealingFirstProposalIsDefault(t *testing.T) {
	sp := space2D()
	sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: 2})
	if !sa.Ask().Equal(sp.DefaultConfig()) {
		t.Fatal("first proposal should be the default configuration")
	}
	sa.Tell(1)
}

func TestAnnealingProposalsFeasible(t *testing.T) {
	sp := param.MustSpace(
		param.Def{Name: "a", Min: 5, Max: 250, Default: 10, Step: 5},
		param.Def{Name: "b", Min: 0, Max: 7, Default: 3, Step: 1},
	)
	f := func(seed uint64) bool {
		sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: seed})
		src := rng.New(seed)
		for i := 0; i < 150; i++ {
			if cfg := sa.Ask(); !sp.Feasible(cfg) {
				return false
			}
			sa.Tell(src.Float64() * 100)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealingCoolsAndConverges(t *testing.T) {
	sp := space2D()
	sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: 3})
	t0 := sa.temp
	drive(sa, bowl(50, 50), 250)
	if sa.temp >= t0 {
		t.Fatal("temperature did not cool")
	}
	if !sa.Converged() {
		t.Fatalf("not converged after 250 evals (T=%v)", sa.temp)
	}
	if sa.Evaluations() != 250 {
		t.Fatal("evaluation count wrong")
	}
}

func TestAnnealingAcceptsWorseEarly(t *testing.T) {
	// At high temperature the annealer must sometimes move to worse
	// points (otherwise it is just hill climbing). Feed it a landscape
	// where every move is slightly worse and check the current point
	// still moves.
	sp := space2D()
	sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: 4})
	first := sa.Ask()
	sa.Tell(100)
	moved := false
	for i := 0; i < 50; i++ {
		cfg := sa.Ask()
		sa.Tell(101) // always slightly worse than the start
		if !cfg.Equal(first) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("annealer never proposed a different point")
	}
}

func TestAnnealingReset(t *testing.T) {
	sp := space2D()
	sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: 5})
	drive(sa, bowl(10, 10), 100)
	anchor := param.Config{150, 150}
	sa.Reset(anchor)
	if sa.Converged() {
		t.Fatal("Reset did not reheat")
	}
	if !sa.Ask().Equal(anchor) {
		t.Fatal("first proposal after Reset should be the anchor")
	}
	sa.Tell(1)
	if _, _, ok := sa.Best(); !ok {
		t.Fatal("best not tracked after reset")
	}
}

func TestAnnealingProtocolPanics(t *testing.T) {
	sp := space2D()
	sa := NewSimulatedAnnealing(sp, AnnealingOptions{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Tell before Ask did not panic")
			}
		}()
		sa.Tell(1)
	}()
	sa.Ask()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Ask did not panic")
			}
		}()
		sa.Ask()
	}()
}

func TestAnnealingDeterministic(t *testing.T) {
	run := func() []string {
		sp := space2D()
		sa := NewSimulatedAnnealing(sp, AnnealingOptions{Seed: 7})
		f := bowl(42, 42)
		var keys []string
		for i := 0; i < 60; i++ {
			cfg := sa.Ask()
			keys = append(keys, cfg.Key())
			sa.Tell(f(cfg))
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at eval %d", i)
		}
	}
}
