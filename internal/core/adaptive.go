package core

import (
	"webharmony/internal/cluster"
	"webharmony/internal/harmony"
	"webharmony/internal/monitor"
	"webharmony/internal/reconfig"
	"webharmony/internal/telemetry"
)

// AdaptiveOptions configures the full Active Harmony loop of §IV:
// parameter tuning every iteration, plus the reconfiguration check at a
// lower frequency (the paper suggests every ~50 iterations, since moving a
// node reacts to long-term trends and costs more).
type AdaptiveOptions struct {
	Strategy      harmony.StrategyKind
	Tuner         harmony.Options
	ReconfigEvery int // reconfiguration check period in iterations
	WorkLines     int // for the partitioning strategies
	MaxMoves      int // safety bound on node moves (0 = unlimited)
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.ReconfigEvery == 0 {
		o.ReconfigEvery = 50
	}
	return o
}

// MoveEvent records one executed reconfiguration.
type MoveEvent struct {
	Iteration int     // 0-based iteration after which the move ran
	SimTime   float64 // simulated seconds at which the move ran
	Decision  reconfig.Decision
}

// AdaptiveResult is the output of RunAdaptive.
type AdaptiveResult struct {
	WIPS    []float64
	Layouts []string
	Moves   []MoveEvent
}

// RunAdaptive runs iters tuning iterations on the lab with periodic
// reconfiguration checks. After a node moves, the tuning strategy is
// rebuilt for the new tier layout, seeded with the best configurations
// found so far (tuning restarts, as the cluster is effectively a new
// system — the cost the paper accepts by running reconfiguration at a
// lower frequency).
func RunAdaptive(lab *Lab, iters int, opts AdaptiveOptions) *AdaptiveResult {
	opts = opts.withDefaults()
	res := &AdaptiveResult{}
	costs := labCosts(lab)
	topts := withTrace(opts.Tuner, lab.rec, lab.Sys.Eng.Now)
	st := harmony.NewStrategy(opts.Strategy, lab.Tiers(), opts.WorkLines, topts)
	acc := newUtilAccumulator()
	for i := 0; i < iters; i++ {
		// One §IV iteration through the same Lookahead/CommitStep protocol
		// the hermetic runners use, at lookahead 1 on the shared lab:
		// stage the proposal, restart and measure, commit.
		for n, cfg := range st.Lookahead(1)[0] {
			lab.Sys.SetNodeConfig(n, cfg)
		}
		m := lab.MeasureIteration(true)
		st.CommitStep(m.WIPS, m.LineWIPS)
		res.WIPS = append(res.WIPS, m.WIPS)
		res.Layouts = append(res.Layouts, lab.Sys.Cluster.Layout())
		acc.add(lab.LastReadings())

		if (i+1)%opts.ReconfigEvery != 0 {
			continue
		}
		// React to the period's average utilization, not the last
		// iteration's (whose configuration may be a tuner probe): the
		// paper runs reconfiguration at a lower frequency precisely
		// because it responds to longer-term trends.
		readings := acc.average()
		acc = newUtilAccumulator()
		if opts.MaxMoves > 0 && len(res.Moves) >= opts.MaxMoves {
			continue
		}
		d, ok := reconfig.Decide(readings, monitor.DefaultThresholds(),
			lab.Sys.Cluster, costs, monitor.DefaultUrgencyOrder())
		if !ok {
			continue
		}
		// Deploy the strategy's best configurations before the move so the
		// rebuilt strategy starts from them, then move the node with the
		// destination tier's best configuration (the tier default when
		// the strategy has none for it).
		best := st.BestNodeConfigs()
		for n, cfg := range best {
			if lab.Sys.Cluster.Node(n) != nil {
				lab.Sys.SetNodeConfig(n, cfg)
			}
		}
		lab.Sys.MoveNode(d.Node, d.To, lab.layout().reduce(best)[d.To])
		res.Moves = append(res.Moves, MoveEvent{
			Iteration: i, SimTime: lab.Sys.Eng.Now(), Decision: d,
		})
		lab.RecordEvent(telemetry.Event{
			Session: "reconfig", Kind: "move", Move: d.String(), Iter: i,
		})
		st = harmony.NewStrategy(opts.Strategy, lab.Tiers(), opts.WorkLines, topts)
	}
	return res
}

// utilAccumulator averages per-node utilizations across iterations.
type utilAccumulator struct {
	sum   map[int][cluster.NumResources]float64
	count map[int]int
	tier  map[int]cluster.Tier
	order []int
}

func newUtilAccumulator() *utilAccumulator {
	return &utilAccumulator{
		sum:   make(map[int][cluster.NumResources]float64),
		count: make(map[int]int),
		tier:  make(map[int]cluster.Tier),
	}
}

func (a *utilAccumulator) add(readings []monitor.Reading) {
	for _, r := range readings {
		if _, seen := a.count[r.Node]; !seen {
			a.order = append(a.order, r.Node)
		}
		s := a.sum[r.Node]
		for j := 0; j < cluster.NumResources; j++ {
			s[j] += r.Util[j]
		}
		a.sum[r.Node] = s
		a.count[r.Node]++
		a.tier[r.Node] = r.Tier // track the latest tier assignment
	}
}

func (a *utilAccumulator) average() []monitor.Reading {
	out := make([]monitor.Reading, 0, len(a.order))
	for _, n := range a.order {
		r := monitor.Reading{Node: n, Tier: a.tier[n]}
		s := a.sum[n]
		c := float64(a.count[n])
		for j := 0; j < cluster.NumResources; j++ {
			r.Util[j] = s[j] / c
		}
		out = append(out, r)
	}
	return out
}
