package core

import (
	"fmt"

	"webharmony/internal/cluster"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/simplex"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// This file is the hermetic evaluation engine (DESIGN.md §10): every
// configuration evaluation the sequential experiment runners make —
// tuning iterations, baseline windows, Figure 4 matrix cells — runs in a
// fresh per-evaluation lab whose rng streams derive from
// the evaluation's canonical key (the node configurations, workload, lab
// shape, window lengths and base seed). The measurement is therefore a
// pure function of that key:
//
//   - re-proposing an already-measured lattice point (integer rounding,
//     simplex shrink steps near convergence, post-restart re-anchoring)
//     reproduces the earlier measurement exactly, so the content-addressed
//     memo table in internal/evalcache can return the stored value with
//     zero observable difference — cache on/off is byte-identical *by
//     construction*, not by test luck;
//   - the per-config (not per-step) streams are a common-random-numbers
//     discipline: two configurations are always compared under streams
//     that depend only on themselves, never on when they were proposed.
//
// Live-cluster paths keep their history: RunFigure7/RunAdaptive measure a
// continuously-running system whose node moves and cache states are the
// object of study, so they stay on Lab.MeasureIteration.

// evalSpec assembles the canonical key inputs of one evaluation from the
// lab configuration. Telemetry/profiling fields and Workers are excluded:
// they never change what a run measures.
func evalSpec(cfg LabConfig, w tpcw.Workload, nodeCfgs map[int]param.Config) evalcache.Spec {
	return evalcache.Spec{
		ProxyNodes: cfg.ProxyNodes,
		AppNodes:   cfg.AppNodes,
		DBNodes:    cfg.DBNodes,
		WorkLines:  cfg.WorkLines,
		Browsers:   cfg.Browsers,
		ThinkMean:  cfg.ThinkMean,
		Scale:      cfg.Scale,
		Sessions:   cfg.Sessions,
		Warm:       cfg.Warm,
		Measure:    cfg.Measure,
		Cool:       cfg.Cool,
		Seed:       cfg.Seed,
		Workload:   w.String(),
		Nodes:      nodeCfgs,
	}
}

// EvalConfig measures one node→configuration assignment hermetically: a
// fresh lab is built from the parent's configuration with rng streams
// seeded from the evaluation key, the configurations are staged, and one
// warm/measure/cool window runs. Nodes absent from nodeCfgs keep their
// space defaults (the runners always pass complete assignments).
//
// When the parent configuration carries an EvalCache, the evaluation is
// memoized under its key. Memoization is bypassed while telemetry is
// attached: a cache hit would skip the per-evaluation recorder/sampler
// registration and change the telemetry byte stream. Replaying stored
// telemetry on a hit would close that gap, but the bypass stays until the
// benchmark's instrumented Figure 4 workload stops asserting it (its
// evalcache-bypassed check requires zero cache lookups). Results are
// identical either way — an evaluation is a pure function of its key.
//
// The window ends with finishTelemetry, so the unit's recorder keeps only
// what the telemetry writers print, not the lab.
func (l *Lab) EvalConfig(w tpcw.Workload, nodeCfgs map[int]param.Config, unit string) websim.Measurement {
	key := evalSpec(l.Cfg, w, nodeCfgs).Key()
	compute := func() websim.Measurement {
		cfg := telemetrySub(l.Cfg, unit)
		cfg.Seed = rng.TaskSeed(l.Cfg.Seed, key.Hash())
		cfg.Workers = 1
		f := NewLab(cfg, w)
		for node, nc := range nodeCfgs {
			f.Sys.SetNodeConfig(node, nc)
		}
		m := f.MeasureIteration(true)
		f.finishTelemetry()
		return m
	}
	if cache := l.Cfg.EvalCache; cache != nil && l.Cfg.Telemetry == nil {
		m, _ := cache.Do(key, compute)
		return m
	}
	return compute()
}

// tierNodeConfigs expands a per-tier configuration map to the complete
// node→configuration assignment of the lab's current layout (every node
// of a tier gets its own clone of the tier's configuration).
func (l *Lab) tierNodeConfigs(cfgs map[cluster.Tier]param.Config) map[int]param.Config {
	out := make(map[int]param.Config)
	for t, cfg := range cfgs {
		for _, n := range l.Sys.Cluster.TierNodes(t) {
			out[n.ID()] = cfg.Clone()
		}
	}
	return out
}

// lookahead bounds how many candidate iterations every tuning runner
// (TuneWorkload, the RunTable4 method rows, Figure 5) evaluates ahead of
// the authoritative search. It is a constant, NOT a function of
// LabConfig.Workers: the set of evaluated (and discarded) candidates —
// and with it every telemetry unit name and rng stream — must be
// identical at every worker count for the output byte-equality contract
// to hold. 16 covers a full initial-simplex evaluation of any one tier's
// space (10 vertices for the db tier); a longer tell-independent run, such
// as the all-parameter simplex of the default strategy, is measured in
// batches of 16.
const lookahead = 16

// drive is the hermetic tuning loop every tuning runner shares: it builds
// a strategy of the given kind on lab and runs phaseLen iterations per
// entry of phases, measuring every proposal via EvalConfig under that
// phase's workload. The lab only stages configurations for the strategy;
// its engine never runs.
//
// The sequential formulation — step the strategy, measure, report — hides
// parallelism because each proposal may depend on the previous report.
// But the tuners are ask/tell state machines whose moves are often
// tell-independent (Nelder-Mead evaluates dim+1 initial vertices after
// every restart before any cost can steer it), so each round:
//
//  1. peeks a joint batch of up to lookahead upcoming proposals from the
//     strategy (Strategy.Lookahead — non-committing), never crossing a
//     phase boundary (those candidates would measure the wrong workload),
//  2. evaluates every candidate hermetically via ForEach over
//     lab.Cfg.Workers, and
//  3. commits the measurements in proposal order (Strategy.CommitStep),
//     re-checking the lookahead before each commit and discarding the rest
//     of the batch the moment a commit changes Strategy.Epoch — a
//     shift-detection restart re-anchored the search, so the remaining
//     peeked proposals are stale — then re-peeks from the restarted state.
//
// Because an evaluation is a pure function of its key, the committed
// sequence is identical at every worker count and every lookahead;
// lookahead 1 is the sequential formulation. Telemetry units carry the
// strategy epoch and the global step index, so a step re-evaluated after
// discarded speculation registers under a fresh recorder name. Trace
// timestamps come from a virtual clock advancing one full iteration window
// per committed step — the cadence an engine clock would follow.
func drive(lab *Lab, kind harmony.StrategyKind, lines int, opts harmony.Options, phases []tpcw.Workload, phaseLen, lookahead int) *harmony.Strategy {
	window := lab.Cfg.Warm + lab.Cfg.Measure + lab.Cfg.Cool
	vt := 0.0
	if opts.Observe == nil && opts.Observer == nil {
		opts.Observe = traceObserve(lab.Recorder(), func() float64 { return vt })
	}
	st := harmony.NewStrategy(kind, lab, lines, opts)
	step := 0 // global iteration index
	for _, w := range phases {
		for end := step + phaseLen; step < end; {
			props := st.Lookahead(min(lookahead, end-step))
			epoch, batchStart := st.Epoch(), step
			ms := make([]websim.Measurement, len(props))
			ForEach(lab.Cfg.Workers, len(props), func(j int) {
				ms[j] = lab.EvalConfig(w, props[j], fmt.Sprintf("e%02d/s%05d", epoch, batchStart+j))
			})
			for j := range props {
				// The batch was peeked under this epoch, so the check can
				// only fail on a runner bug — but a silently corrupted
				// search is far worse than a panic, so verify every commit.
				if next := st.Lookahead(1); len(next) == 0 || !nodeConfigsEqual(next[0], props[j]) {
					panic(fmt.Sprintf("core: speculative candidate %d diverged from the authoritative search", batchStart+j))
				}
				vt += window
				st.CommitStep(ms[j].WIPS, ms[j].LineWIPS)
				step++
				if st.Epoch() != epoch {
					// The commit restarted the search: candidates j+1..
					// were measured for proposals the re-anchored sessions
					// will never make. Record and drop them.
					if rec := lab.Recorder(); rec != nil {
						for k := j + 1; k < len(props); k++ {
							rec.Event(telemetry.Event{
								Session: "speculate", T: vt, Iter: batchStart + k,
								Kind: "discard", Move: "speculate-discard",
							})
						}
					}
					break
				}
			}
		}
	}
	return st
}

// nodeConfigsEqual reports whether two node→configuration assignments
// stage identical configurations on identical node sets.
func nodeConfigsEqual(a, b map[int]param.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for n, cfg := range a {
		o, ok := b[n]
		if !ok || !cfg.Equal(o) {
			return false
		}
	}
	return true
}

// traceObserve returns the observer factory that streams tuner steps into
// rec, stamped with now() — the engine clock on a live lab, the driver's
// virtual clock on hermetic runs. Nil (tracing disabled) when rec is nil.
func traceObserve(rec *telemetry.Recorder, now func() float64) func(label string, space *param.Space) simplex.StepObserver {
	if rec == nil {
		return nil
	}
	return func(label string, space *param.Space) simplex.StepObserver {
		return func(st simplex.Step) {
			ev := telemetry.Event{
				Session: label,
				T:       now(),
				Iter:    st.Evaluations,
				Kind:    "step",
				Move:    st.Move,
				Cost:    st.Cost,
				Best:    st.BestCost,
			}
			if st.Move == "reset" || st.Move == "shift-restart" {
				ev.Kind = "restart"
			}
			if st.Config != nil {
				ev.Config = st.Config.Map(space)
			}
			rec.Event(ev)
		}
	}
}
