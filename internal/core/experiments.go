package core

import (
	"fmt"

	"webharmony/internal/cluster"
	"webharmony/internal/harmony"
	"webharmony/internal/monitor"
	"webharmony/internal/param"
	"webharmony/internal/reconfig"
	"webharmony/internal/stats"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// SingleWorkloadResult is the §III.A experiment: tune one workload on the
// 4-machine setup and compare against the default configuration.
type SingleWorkloadResult struct {
	Workload tpcw.Workload
	Baseline []float64 // WIPS of repeated default-configuration iterations
	Tuning   []float64 // WIPS per tuning iteration

	BestConfigs map[cluster.Tier]param.Config
	BestWIPS    float64

	// Second-half statistics, as reported in §III.A.
	AvgImprovement float64 // mean(second half) / mean(baseline) − 1
	FracBetter     float64 // fraction of second-half iterations above baseline
}

// TuneWorkload runs the §III.A single-workload tuning experiment: iters
// tuning iterations with a single Harmony server over all parameters of
// the 1/1/1 cluster, plus baselineIters unturned iterations for reference.
// Both the baseline windows and the tuning iterations run hermetically
// (DESIGN.md §10): every evaluation is a fresh per-evaluation lab keyed by
// its configuration, so re-proposed lattice points are exact repeats and
// memoize under cfg.EvalCache. Candidate evaluations fan out over
// cfg.Workers through the driver's lookahead (see drive); the result is
// the sequential one at every worker count.
func TuneWorkload(cfg LabConfig, w tpcw.Workload, iters, baselineIters int, opts harmony.Options) *SingleWorkloadResult {
	return tuneWorkload(cfg, w, iters, baselineIters, lookahead, opts)
}

// tuneWorkload is TuneWorkload driven at the given lookahead depth.
func tuneWorkload(cfg LabConfig, w tpcw.Workload, iters, baselineIters, depth int, opts harmony.Options) *SingleWorkloadResult {
	res := &SingleWorkloadResult{Workload: w}

	// Baseline: the default configuration, measured repeatedly.
	base := NewLab(telemetrySub(cfg, "baseline"), w)
	res.Baseline = base.MeasureConfig(DefaultConfigs(), baselineIters)

	// Tuning run on a fresh, identically-seeded lab.
	lab := NewLab(telemetrySub(cfg, "tuning"), w)
	st := drive(lab, harmony.StrategyDefault, 0, opts, []tpcw.Workload{w}, iters, depth)
	res.Tuning = st.Perf()
	res.BestWIPS, _ = st.Best()
	res.BestConfigs = tierConfigs(lab, st.BestNodeConfigs())

	baseMean := stats.MeanOf(res.Baseline)
	half := res.Tuning[len(res.Tuning)/2:]
	res.AvgImprovement = stats.Improvement(baseMean, stats.MeanOf(half))
	res.FracBetter = stats.FractionAbove(half, baseMean)
	return res
}

// tierConfigs reduces a node→config map to one configuration per tier
// (nodes of a tier share the configuration under the strategies used
// here; the first node of the tier is taken as representative).
func tierConfigs(lab *Lab, nodeCfgs map[int]param.Config) map[cluster.Tier]param.Config {
	out := make(map[cluster.Tier]param.Config)
	for _, t := range cluster.Tiers() {
		nodes := lab.Sys.Cluster.TierNodes(t)
		if len(nodes) == 0 {
			continue
		}
		if cfg, ok := nodeCfgs[nodes[0].ID()]; ok {
			out[t] = cfg
		}
	}
	return out
}

// Figure4Result is the cross-workload configuration matrix of Figure 4.
type Figure4Result struct {
	// Matrix[i][j] is the WIPS of workload j running under the best
	// configuration tuned for workload i (Table 1 order).
	Matrix [3][3]float64
	// Default[j] is workload j's WIPS under the default configuration.
	Default [3]float64
	// Improvement[j] is Matrix[j][j] relative to Default[j] (the table
	// under Figure 4: 15% / 16% / 5% in the paper).
	Improvement [3]float64
	// Best holds the tuned per-tier configurations (Table 3).
	Best map[tpcw.Workload]map[cluster.Tier]param.Config
	// Runs keeps the underlying tuning runs for further analysis.
	Runs map[tpcw.Workload]*SingleWorkloadResult
}

// RunFigure4 tunes each workload for iters iterations, then applies every
// best configuration to every workload, reproducing Figure 4 and Table 3.
// evalIters iterations are averaged per matrix cell.
//
// The three tuning runs are independent (each builds its own lab from
// cfg.Seed) and fan out over cfg.Workers, as do each run's candidate
// evaluations through the driver's lookahead and the nine evaluation
// matrix cells once every best configuration is known. The output is
// bit-for-bit identical at any worker count.
func RunFigure4(cfg LabConfig, iters, evalIters int, opts harmony.Options) *Figure4Result {
	res := &Figure4Result{
		Best: make(map[tpcw.Workload]map[cluster.Tier]param.Config),
		Runs: make(map[tpcw.Workload]*SingleWorkloadResult),
	}
	ws := tpcw.Workloads()

	// Phase 1: one tuning run per workload, each writing its own slot.
	runs := make([]*SingleWorkloadResult, len(ws))
	ForEach(cfg.Workers, len(ws), func(i int) {
		runs[i] = TuneWorkload(telemetrySub(cfg, "tune:"+ws[i].String()), ws[i], iters, evalIters, opts)
	})
	for i, w := range ws {
		res.Runs[w] = runs[i]
		res.Best[w] = runs[i].BestConfigs
		res.Default[w] = stats.MeanOf(runs[i].Baseline)
	}

	// Phase 2: the evaluation matrix, one cell per (from, on) pair. The
	// best-configuration maps are read-only from here on.
	ForEach(cfg.Workers, len(ws)*len(ws), func(k int) {
		from, on := ws[k/len(ws)], ws[k%len(ws)]
		lab := NewLab(telemetrySub(cfg, fmt.Sprintf("eval:%s-on-%s", from, on)), on)
		series := lab.MeasureConfig(res.Best[from], evalIters)
		res.Matrix[from][on] = stats.MeanOf(series)
	})
	for _, w := range ws {
		res.Improvement[w] = stats.Improvement(res.Default[w], res.Matrix[w][w])
	}
	return res
}

// Figure5Result is the workload-responsiveness experiment of Figure 5.
type Figure5Result struct {
	WIPS     []float64       // per iteration
	Workload []tpcw.Workload // active workload per iteration
	Switches []int           // iteration indices (0-based) where the workload changed
	// Recovery holds, per switch, the iterations needed to re-reach the
	// phase's 90% steady band; RecoveryNone when it never did.
	Recovery []int
	PhaseLen int
	Restarts int // tuning-session restarts triggered by shift detection
}

// RunFigure5 runs tuning under a workload that changes every phaseLen
// iterations, following seq (cycled). Shift detection should be enabled in
// opts for the paper's responsiveness behaviour.
//
// Candidate evaluation fans out over cfg.Workers via speculative
// lookahead (see drive): the tuners' tell-independent proposals are
// measured concurrently in hermetic labs and committed in proposal order,
// with speculation past any shift-detection restart discarded. The
// output — WIPS series, Recovery, Restarts, telemetry traces/metrics and
// simprofile stacks — is bit-for-bit identical at every worker count.
func RunFigure5(cfg LabConfig, seq []tpcw.Workload, phaseLen, phases int, opts harmony.Options) *Figure5Result {
	res, _ := runFigure5(cfg, seq, phaseLen, phases, lookahead, opts)
	return res
}

// Table4Row is one row of Table 4 (cluster tuning methods).
type Table4Row struct {
	Method      string
	WIPS        float64 // best configuration's WIPS after the run
	StdDev      float64 // of the second half of iterations
	Improvement float64 // vs the no-tuning baseline
	// Iterations is the initial-exploration length of the method's widest
	// tuning server (the paper's n+1 scalability cost): how long before
	// tuning can take effect.
	Iterations int
}

// Table4Result is the Table 4 comparison of cluster tuning methods.
type Table4Result struct {
	Rows []Table4Row
}

// RunTable4 compares cluster tuning methods on a 2/2/2 cluster with two
// work lines under the shopping mix: no tuning, the default method (one
// server, all parameters), parameter duplication, parameter partitioning,
// and the hybrid (§III.B future work).
//
// The baseline and the four method runs are independent replications,
// each on its own identically-seeded lab, and fan out over cfg.Workers,
// as do each method's candidate evaluations through the driver's
// lookahead (see drive); the improvement column is filled in after the
// join. Output is bit-for-bit identical at any worker count.
func RunTable4(cfg LabConfig, iters int, opts harmony.Options) *Table4Result {
	return runTable4(cfg, iters, lookahead, opts)
}

// runTable4 is RunTable4 with the method rows driven at the given
// lookahead depth.
func runTable4(cfg LabConfig, iters, depth int, opts harmony.Options) *Table4Result {
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = 2, 2, 2
	cfg.WorkLines = 2

	kinds := []harmony.StrategyKind{
		harmony.StrategyDefault,
		harmony.StrategyDuplication,
		harmony.StrategyPartitioning,
		harmony.StrategyHybrid,
	}

	rows := make([]Table4Row, 1+len(kinds))
	ForEach(cfg.Workers, len(rows), func(i int) {
		if i == 0 {
			// Baseline: no tuning. At least one window must run even for
			// iters < 4 — iters/4 == 0 would yield an empty series whose
			// mean (and every improvement column derived from it) is NaN.
			base := NewLab(telemetrySub(cfg, "baseline"), tpcw.Shopping)
			baseIters := iters / 4
			if baseIters < 1 {
				baseIters = 1
			}
			baseSeries := base.MeasureConfig(DefaultConfigs(), baseIters)
			rows[0] = Table4Row{
				Method: "none",
				WIPS:   stats.MeanOf(baseSeries),
				StdDev: stats.StdDevOf(baseSeries[len(baseSeries)/2:]),
			}
			return
		}
		kind := kinds[i-1]
		lab := NewLab(telemetrySub(cfg, "method:"+kind.String()), tpcw.Shopping)
		st := drive(lab, kind, cfg.WorkLines, opts, []tpcw.Workload{tpcw.Shopping}, iters, depth)
		best, _ := st.Best()
		perf := st.Perf()
		rows[i] = Table4Row{
			Method:     kind.String(),
			WIPS:       best,
			StdDev:     stats.StdDevOf(perf[len(perf)/2:]),
			Iterations: st.ExplorationIterations(),
		}
	})
	baseMean := rows[0].WIPS
	for i := 1; i < len(rows); i++ {
		rows[i].Improvement = stats.Improvement(baseMean, rows[i].WIPS)
	}
	return &Table4Result{Rows: rows}
}

// Figure7Result is one automatic-reconfiguration experiment (Figure 7).
type Figure7Result struct {
	WIPS    []float64 // per iteration
	Layouts []string  // cluster layout per iteration

	Decision    reconfig.Decision
	Moved       bool
	MovedAt     int // iteration index (0-based) after which the move ran
	Before      float64
	After       float64
	Improvement float64

	// Timeline holds periodic per-node utilization samples over the whole
	// run — the data behind the paper's utilization narrative ("the
	// application servers are highly loaded... some proxy servers are
	// idling"). Not serialized to JSON; use its WriteCSV.
	Timeline *monitor.Timeline `json:"-"`
}

// Figure7Options selects the variant of the experiment.
type Figure7Options struct {
	ProxyNodes, AppNodes, DBNodes int
	Start                         tpcw.Workload
	SwitchTo                      tpcw.Workload // Start again for "no switch"
	SwitchAt                      int           // iteration of the workload change
	CheckAt                       int           // iteration of the reconfiguration check
	Total                         int
}

// Figure7a returns the §IV variant (a): 4 proxy + 2 app nodes, browsing
// changing to ordering, with the reconfiguration check after the change.
func Figure7a() Figure7Options {
	return Figure7Options{
		ProxyNodes: 4, AppNodes: 2, DBNodes: 1,
		Start: tpcw.Browsing, SwitchTo: tpcw.Ordering,
		SwitchAt: 9, CheckAt: 12, Total: 24,
	}
}

// Figure7b returns variant (b): 2 proxy + 4 app nodes under a browsing
// workload throughout.
func Figure7b() Figure7Options {
	return Figure7Options{
		ProxyNodes: 2, AppNodes: 4, DBNodes: 1,
		Start: tpcw.Browsing, SwitchTo: tpcw.Browsing,
		SwitchAt: -1, CheckAt: 12, Total: 24,
	}
}

// GenerousConfigs returns per-tier configurations with ample thread and
// connection capacity (memory-safe), approximating a system whose
// parameters Harmony has already tuned. Figure 7 isolates the remaining
// load-imbalance problem, which no parameter setting can fix.
func GenerousConfigs() map[cluster.Tier]param.Config {
	out := DefaultConfigs()
	asp := websim.SpaceFor(cluster.TierApp)
	a := out[cluster.TierApp]
	set := func(sp *param.Space, c param.Config, name string, v int64) {
		c[sp.IndexOf(name)] = v
	}
	set(asp, a, "minProcessors", 64)
	set(asp, a, "maxProcessors", 256)
	set(asp, a, "acceptCount", 1024)
	set(asp, a, "AJPminProcessors", 64)
	set(asp, a, "AJPmaxProcessors", 256)
	set(asp, a, "AJPacceptCount", 1024)
	set(asp, a, "bufferSize", 8192)
	dsp := websim.SpaceFor(cluster.TierDB)
	d := out[cluster.TierDB]
	set(dsp, d, "max_connections", 1001)
	set(dsp, d, "thread_con", 64)
	set(dsp, d, "join_buffer_size", 262144)
	set(dsp, d, "table_cache", 905)
	set(dsp, d, "binlog_cache_size", 262144)
	set(dsp, d, "delayed_queue_size", 4000)
	psp := websim.SpaceFor(cluster.TierProxy)
	p := out[cluster.TierProxy]
	set(psp, p, "cache_mem", 64)
	set(psp, p, "maximum_object_size_in_memory", 128)
	return out
}

// RunFigure7 runs a reconfiguration experiment. Tier configurations are
// held fixed at GenerousConfigs, approximating an already parameter-tuned
// system, so the measured jump is attributable to the topology change, as
// in the paper's figures.
func RunFigure7(cfg LabConfig, fo Figure7Options) *Figure7Result {
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = fo.ProxyNodes, fo.AppNodes, fo.DBNodes
	lab := NewLab(cfg, fo.Start)
	tierCfgs := GenerousConfigs()
	for t, c := range tierCfgs {
		lab.Sys.SetTierConfig(t, c)
	}
	lab.Sys.Restart()

	res := &Figure7Result{MovedAt: -1}
	res.Timeline = monitor.NewTimeline(lab.Sys.Eng, lab.Sys.Cluster,
		(cfg.Warm+cfg.Measure+cfg.Cool)/2)
	res.Timeline.Start()
	costs := labCosts(lab)
	for i := 0; i < fo.Total; i++ {
		if i == fo.SwitchAt && fo.SwitchTo != fo.Start {
			lab.Driver.SetWorkload(fo.SwitchTo)
		}
		m := lab.MeasureIteration(false)
		res.WIPS = append(res.WIPS, m.WIPS)
		res.Layouts = append(res.Layouts, lab.Sys.Cluster.Layout())

		if i == fo.CheckAt && !res.Moved {
			readings := lab.LastReadings()
			d, ok := reconfig.Decide(readings, monitor.DefaultThresholds(), lab.Sys.Cluster,
				costs, monitor.DefaultUrgencyOrder())
			if ok {
				res.Decision = d
				res.Moved = true
				res.MovedAt = i
				lab.Sys.MoveNode(d.Node, d.To, tierCfgs[d.To])
				lab.RecordEvent(telemetry.Event{
					Session: "reconfig", Kind: "move", Move: d.String(), Iter: i,
				})
			}
		}
	}
	res.Timeline.Stop()
	if res.Moved {
		// Compare the window just before the move (after any workload
		// switch settled) against the post-move steady state.
		preStart := fo.SwitchAt + 1
		if fo.SwitchAt < 0 {
			preStart = fo.CheckAt / 2
		}
		pre := res.WIPS[preStart : res.MovedAt+1]
		post := res.WIPS[res.MovedAt+2:]
		res.Before = stats.MeanOf(pre)
		res.After = stats.MeanOf(post)
		res.Improvement = stats.Improvement(res.Before, res.After)
	}
	return res
}

// RunFigure7Variants runs several reconfiguration experiments, fanned out
// over cfg.Workers; element i of the result corresponds to fos[i]. Each
// variant builds its own lab, so the results are identical to calling
// RunFigure7 once per variant sequentially.
func RunFigure7Variants(cfg LabConfig, fos ...Figure7Options) []*Figure7Result {
	out := make([]*Figure7Result, len(fos))
	ForEach(cfg.Workers, len(fos), func(i int) {
		ccfg := cfg
		if len(fos) > 1 {
			// Distinguish variant recorders; a single variant keeps the
			// caller's unit name unchanged.
			ccfg = telemetrySub(cfg, fmt.Sprintf("v%d", i))
		}
		out[i] = RunFigure7(ccfg, fos[i])
	})
	return out
}

// labCosts builds the reconfiguration cost terms from live queue state.
func labCosts(lab *Lab) reconfig.Costs {
	c := reconfig.DefaultCosts()
	c.Jobs = func(node int) int {
		n := lab.Sys.Cluster.Node(node)
		if n == nil {
			return 0
		}
		return n.CPU().Busy() + n.CPU().QueueLen() + n.Disk().QueueLen() + n.NIC().QueueLen()
	}
	return c
}
