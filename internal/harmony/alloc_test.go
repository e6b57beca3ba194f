package harmony

import "testing"

// TestStrategyStepAllocs pins the steady-state allocation cost of one
// tuning iteration so event-loop and bookkeeping wins don't silently
// erode. It measures a fake run plus CommitStep, the commit every tuning
// loop runs (the fake measures what the previous commit staged, which is
// all an allocation count needs). Measured on the synthetic two-tier
// cluster: 16 allocs/iteration for the default strategy and 22 for
// duplication/partitioning (stable across seeds — the ask/tell path
// allocates only proposal clones and the per-iteration report slices).
// The live loop also takes a Lookahead(1) per iteration (10–12 allocs on
// this cluster, more on a larger one), which is noise next to the
// simulated window it stages. The ceiling leaves ~18% headroom over the
// 22-alloc worst case so legitimate small changes don't trip it, while a
// quadratic or per-parameter regression will.
func TestStrategyStepAllocs(t *testing.T) {
	const ceiling = 26.0
	for _, kind := range []StrategyKind{StrategyDefault, StrategyDuplication, StrategyPartitioning} {
		fc := newFakeCluster(0.5)
		st := NewStrategy(kind, fc, 2, Options{Seed: 7})
		iteration := func() {
			wips, lines := fc.RunIteration()
			st.CommitStep(wips, lines)
		}
		// Warm past structural exploration so the measurement covers the
		// steady ask/tell cycle, not one-time session setup.
		for i := 0; i < 40; i++ {
			iteration()
		}
		if avg := testing.AllocsPerRun(200, iteration); avg > ceiling {
			t.Errorf("%v: %.1f allocs/iteration, ceiling %.0f", kind, avg, ceiling)
		}
	}
}
