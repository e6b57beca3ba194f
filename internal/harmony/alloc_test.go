package harmony

import "testing"

// TestStrategyStepAllocs pins the steady-state allocation cost of one
// tuning iteration so event-loop and bookkeeping wins don't silently
// erode. It measures the loop the live runner (core.RunAdaptive) runs:
// take Lookahead(1), stage its entry on the fake cluster, run the fake
// iteration and CommitStep the measurement. Measured on the synthetic
// two-tier cluster: 16 allocs/iteration for the default strategy and 25
// for duplication and partitioning (stable across seeds — the lookahead's
// peeked proposals and per-node assignment map, the tuners' asks and the
// history's report records). A quadratic or per-parameter regression
// trips the ceiling.
func TestStrategyStepAllocs(t *testing.T) {
	const ceiling = 26.0
	for _, kind := range []StrategyKind{StrategyDefault, StrategyDuplication, StrategyPartitioning} {
		fc := newFakeCluster(0.5)
		st := NewStrategy(kind, fc.tiers(), 2, Options{Seed: 7})
		iteration := func() {
			fc.stage(st.Lookahead(1)[0])
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
