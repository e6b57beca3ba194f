package harmony

import (
	"testing"

	"webharmony/internal/param"
	"webharmony/internal/rng"
)

// fakeCluster is a synthetic tuned system: two tiers with two nodes each.
// Global performance is the sum of per-node peak functions plus noise;
// per-line performance splits nodes by index parity, as the simulator's
// router does.
type fakeCluster struct {
	spaces  map[string]*param.Space
	configs map[int]param.Config
	src     *rng.Source
	noise   float64
	bias    float64 // added to every line's output; flip it to fake a workload shift
	iters   int
}

func newFakeCluster(noise float64) *fakeCluster {
	f := &fakeCluster{
		spaces: map[string]*param.Space{
			"front": param.MustSpace(
				param.Def{Name: "a", Min: 0, Max: 100, Default: 10, Step: 1},
				param.Def{Name: "b", Min: 0, Max: 100, Default: 10, Step: 1},
			),
			"back": param.MustSpace(
				param.Def{Name: "c", Min: 0, Max: 100, Default: 90, Step: 1},
			),
		},
		configs: map[int]param.Config{},
		src:     rng.New(99),
		noise:   noise,
	}
	f.configs[0] = f.spaces["front"].DefaultConfig()
	f.configs[1] = f.spaces["front"].DefaultConfig()
	f.configs[2] = f.spaces["back"].DefaultConfig()
	f.configs[3] = f.spaces["back"].DefaultConfig()
	return f
}

// tiers returns the cluster's layout with its nodes' current
// configurations, the view NewStrategy anchors at.
func (f *fakeCluster) tiers() []TierSpec {
	return []TierSpec{
		{Name: "front", Space: f.spaces["front"], Nodes: []int{0, 1},
			Configs: []param.Config{f.configs[0].Clone(), f.configs[1].Clone()}},
		{Name: "back", Space: f.spaces["back"], Nodes: []int{2, 3},
			Configs: []param.Config{f.configs[2].Clone(), f.configs[3].Clone()}},
	}
}

// stage applies a node → configuration assignment, as a runner applies
// a proposal to the system it is about to measure. The strategies hand
// out fresh configurations, so the fake keeps them without copying.
func (f *fakeCluster) stage(m map[int]param.Config) {
	for node, cfg := range m {
		f.configs[node] = cfg
	}
}

// nodePerf peaks at a=60,b=40 for front nodes and c=25 for back nodes.
func (f *fakeCluster) nodePerf(node int) float64 {
	c := f.configs[node]
	if node < 2 {
		da, db := float64(c[0])-60, float64(c[1])-40
		return 50 - (da*da+db*db)/200
	}
	dc := float64(c[0]) - 25
	return 50 - dc*dc/200
}

func (f *fakeCluster) RunIteration() (float64, []float64) {
	f.iters++
	line0 := f.nodePerf(0) + f.nodePerf(2)
	line1 := f.nodePerf(1) + f.nodePerf(3)
	n0 := f.src.Normal(0, f.noise) + f.bias
	n1 := f.src.Normal(0, f.noise) + f.bias
	return line0 + line1 + n0 + n1, []float64{line0 + n0, line1 + n1}
}

// seqStep is the sequential reference formulation of one tuning
// iteration: ask each session for its next proposal and stage it on the
// fake cluster, run the fake iteration on it, and report the measurement
// (CommitStep answers the same pending proposals). It asks the sessions
// directly rather than through Lookahead, so the speculative tests that
// compare Lookahead/CommitStep batches against it have an independent
// reference.
func seqStep(st *Strategy, fc *fakeCluster) float64 {
	st.maybeSwitch()
	fc.stage(st.scatter(func(sess *Session) param.Config { return sess.NextConfig() }))
	wips, lines := fc.RunIteration()
	st.CommitStep(wips, lines)
	return wips
}

func (f *fakeCluster) defaultPerf() float64 {
	return f.nodePerf(0) + f.nodePerf(1) + f.nodePerf(2) + f.nodePerf(3)
}

func TestStrategyKindString(t *testing.T) {
	names := map[StrategyKind]string{
		StrategyDefault: "default", StrategyDuplication: "duplication",
		StrategyPartitioning: "partitioning", StrategyHybrid: "hybrid",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if StrategyKind(9).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

func TestAllStrategiesImprove(t *testing.T) {
	for _, kind := range []StrategyKind{StrategyDefault, StrategyDuplication, StrategyPartitioning, StrategyHybrid} {
		fc := newFakeCluster(0.5)
		base := fc.defaultPerf()
		st := NewStrategy(kind, fc.tiers(), 2, Options{Seed: 7})
		for i := 0; i < 120; i++ {
			seqStep(st, fc)
		}
		best, bestIt := st.Best()
		if best <= base {
			t.Errorf("%v: best %v did not beat default %v", kind, best, base)
		}
		if bestIt < 1 || bestIt > 120 {
			t.Errorf("%v: bestIt = %d", kind, bestIt)
		}
		if st.iters != 120 || len(st.Perf()) != 120 {
			t.Errorf("%v: iteration bookkeeping wrong", kind)
		}
	}
}

func TestDefaultStrategyTunesAllNodesIndependently(t *testing.T) {
	fc := newFakeCluster(0)
	st := NewStrategy(StrategyDefault, fc.tiers(), 0, Options{Seed: 3})
	if len(st.Sessions()) != 1 {
		t.Fatalf("default strategy has %d sessions, want 1", len(st.Sessions()))
	}
	// Dimension = 2 front nodes × 2 params + 2 back nodes × 1 param = 6.
	if dim := st.Sessions()[0].Space().Len(); dim != 6 {
		t.Fatalf("default strategy dimension = %d, want 6", dim)
	}
	seqStep(st, fc)
	// Node configs may differ across nodes of the same tier.
	if len(fc.configs[0]) != 2 || len(fc.configs[2]) != 1 {
		t.Fatal("config scatter wrong")
	}
}

func TestDuplicationStrategySharesTierConfigs(t *testing.T) {
	fc := newFakeCluster(0)
	st := NewStrategy(StrategyDuplication, fc.tiers(), 0, Options{Seed: 3})
	if len(st.Sessions()) != 2 {
		t.Fatalf("duplication has %d sessions, want 2 (one per tier)", len(st.Sessions()))
	}
	for i := 0; i < 10; i++ {
		seqStep(st, fc)
		if !fc.configs[0].Equal(fc.configs[1]) {
			t.Fatal("front tier nodes diverged under duplication")
		}
		if !fc.configs[2].Equal(fc.configs[3]) {
			t.Fatal("back tier nodes diverged under duplication")
		}
	}
}

func TestPartitioningStrategyUsesLineFeedback(t *testing.T) {
	fc := newFakeCluster(0)
	st := NewStrategy(StrategyPartitioning, fc.tiers(), 2, Options{Seed: 3})
	if len(st.Sessions()) != 2 {
		t.Fatalf("partitioning has %d sessions, want 2 (one per line)", len(st.Sessions()))
	}
	// Line sessions own nodes (0,2) and (1,3): dimension 3 each.
	for _, sess := range st.Sessions() {
		if sess.Space().Len() != 3 {
			t.Fatalf("line session dimension = %d, want 3", sess.Space().Len())
		}
	}
	for i := 0; i < 60; i++ {
		seqStep(st, fc)
	}
	// Nodes of the same tier may legitimately differ across lines.
	// Each line session must have 60 iterations of its own feedback.
	for _, sess := range st.Sessions() {
		if sess.Iterations() != 60 {
			t.Fatalf("line session has %d iterations", sess.Iterations())
		}
	}
}

// convergenceIteration is the iteration at which st's tuned configuration
// was first proposed: the latest, over its sessions, of the first
// iteration whose configuration equals that session's best-ever one.
func convergenceIteration(st *Strategy) int {
	worst := 0
	for _, sess := range st.Sessions() {
		best, _, _ := sess.BestEver()
		for i, r := range sess.History() {
			if r.Config.Equal(best) {
				worst = max(worst, i+1)
				break
			}
		}
	}
	return worst
}

func TestDuplicationConvergesFasterThanDefault(t *testing.T) {
	// The paper's Table 4: duplication (fewer dimensions) finds its tuned
	// configuration in far fewer iterations than the default method. With
	// a noiseless fake target the measured convergence iteration is
	// reliable.
	run := func(kind StrategyKind) (int, int) {
		fc := newFakeCluster(0)
		st := NewStrategy(kind, fc.tiers(), 2, Options{Seed: 11})
		for i := 0; i < 200; i++ {
			seqStep(st, fc)
		}
		return convergenceIteration(st), st.ExplorationIterations()
	}
	def, defExp := run(StrategyDefault)
	dup, dupExp := run(StrategyDuplication)
	if dup >= def {
		t.Fatalf("duplication (%d iters) not faster than default (%d iters)", dup, def)
	}
	// Structural exploration: default = 6+1, duplication = max(2,1)+1.
	if defExp != 7 || dupExp != 3 {
		t.Fatalf("exploration lengths: def=%d dup=%d, want 7/3", defExp, dupExp)
	}
}

func TestHybridSwitchesPhases(t *testing.T) {
	fc := newFakeCluster(0.2)
	st := NewStrategy(StrategyHybrid, fc.tiers(), 2, Options{Seed: 5})
	if len(st.Sessions()) != 2 { // duplication phase: one per tier
		t.Fatal("hybrid should start in duplication")
	}
	for i := 0; i < 40; i++ {
		seqStep(st, fc)
	}
	// The switch anchors the per-line sessions at the duplication phase's
	// best configurations, so the first partitioning proposal is them.
	best := st.BestNodeConfigs()
	first := st.Lookahead(1)[0]
	for node, cfg := range best {
		if !cfg.Equal(first[node]) {
			t.Fatalf("node %d: first partitioning proposal %v, duplication best %v", node, first[node], cfg)
		}
	}
	seqStep(st, fc)
	// After the switch, sessions are per-line with concatenated spaces.
	if got := st.Sessions()[0].Space().Len(); got != 3 {
		t.Fatalf("hybrid did not switch to partitioning (dim=%d)", got)
	}
	for i := 0; i < 40; i++ {
		seqStep(st, fc)
	}
	if st.iters != 81 {
		t.Fatal("iterations lost across phase switch")
	}
}

func TestPartitioningRequiresLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("partitioning without lines accepted")
		}
	}()
	NewStrategy(StrategyPartitioning, newFakeCluster(0).tiers(), 0, Options{})
}
