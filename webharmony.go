// Package webharmony reproduces "Automated Cluster-Based Web Service
// Performance Tuning" (Chung & Hollingsworth, HPDC 2004): the Active
// Harmony automated tuning system applied to a simulated cluster-based
// TPC-W e-commerce service.
//
// The package is a facade over the building blocks in internal/:
//
//   - a deterministic discrete-event simulation of a multi-tier web
//     cluster (Squid-like proxy caches, Tomcat-like application servers,
//     MySQL-like databases on 10 paper-spec machines);
//   - the TPC-W workload (Table 1 mixes, emulated browsers, WIPS metrics);
//   - the Active Harmony tuning server (an ask/tell Nelder-Mead simplex
//     adapted to bounded integer parameter lattices), including the
//     cluster-scale strategies of §III.B (parameter duplication and
//     parameter partitioning) and a TCP wire protocol (cmd/harmonyd);
//   - the automatic cluster reconfiguration algorithm of §IV.
//
// Each experiment of the paper's evaluation has a runner: TuneWorkload
// (§III.A), RunFigure4/Table 3, RunFigure5, RunTable4 and RunFigure7, plus
// printers that render the corresponding tables. See EXPERIMENTS.md for
// paper-vs-measured results.
package webharmony

import (
	"io"

	"webharmony/internal/core"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/param"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
)

// Workload selects a TPC-W mix (Table 1).
type Workload = tpcw.Workload

// The three TPC-W workload mixes.
const (
	Browsing = tpcw.Browsing
	Shopping = tpcw.Shopping
	Ordering = tpcw.Ordering
)

// Workloads lists the three mixes in Table 1 order.
func Workloads() []Workload { return tpcw.Workloads() }

// LabConfig describes an experimental setup: cluster shape, client load,
// iteration windows.
type LabConfig = core.LabConfig

// TelemetryCollector gathers the deterministic tuner step trace and
// per-tier metrics timeseries of a run. Assign one to LabConfig.Telemetry
// (see WithTelemetryUnit for naming the experiment units), run experiments,
// then WriteTrace/WriteMetrics the collected data.
type TelemetryCollector = telemetry.Collector

// TelemetryEvent is one trace record (a tuner step, restart or node move).
type TelemetryEvent = telemetry.Event

// TelemetrySample is one per-tier metrics observation.
type TelemetrySample = telemetry.Sample

// NewTelemetryCollector creates an empty telemetry collector.
func NewTelemetryCollector() *TelemetryCollector { return telemetry.NewCollector() }

// EvalCache is the content-addressed memo table for hermetic evaluations.
// Assign one to LabConfig.EvalCache and the sequential experiment runners
// (TuneWorkload, RunFigure4, RunTable4, RunFigure5) skip re-simulating
// configurations they have already measured; results are byte-identical
// with and without the cache (DESIGN.md §10).
type EvalCache = evalcache.Cache

// EvalCacheStats is the cache's deterministic counter set.
type EvalCacheStats = evalcache.Stats

// EvalCacheSnapshot is the serializable image of an EvalCache, for
// cross-run warm starts (webtune -evalcache).
type EvalCacheSnapshot = evalcache.Snapshot

// NewEvalCache creates an empty evaluation cache.
func NewEvalCache() *EvalCache { return evalcache.New() }

// LoadEvalCacheSnapshot parses a snapshot previously produced by
// EvalCacheSnapshot.Marshal.
func LoadEvalCacheSnapshot(data []byte) (*EvalCacheSnapshot, error) {
	return evalcache.LoadSnapshot(data)
}

// WriteEvalStats writes the cache counters as a fixed-layout report.
func WriteEvalStats(w io.Writer, s EvalCacheStats) error {
	return telemetry.WriteEvalStats(w, telemetry.EvalStats(s))
}

// PaperLab returns the paper's full-size setup (100/1000/100 s windows).
func PaperLab() LabConfig { return core.PaperLab() }

// StandardLab returns the benchmark-harness setup (shortened windows).
func StandardLab() LabConfig { return core.StandardLab() }

// QuickLab returns a scaled-down setup for tests and demos.
func QuickLab() LabConfig { return core.QuickLab() }

// TinyLab returns a deliberately undersized setup for byte-level golden
// and determinism tests (webtune -scale tiny); its numbers mean nothing.
func TinyLab() LabConfig { return core.TinyLab() }

// TunerOptions configures the Active Harmony search (algorithm, seed,
// extreme-value guard, workload-shift detection).
type TunerOptions = harmony.Options

// Tuning algorithms.
const (
	AlgoNelderMead = harmony.AlgoNelderMead
	AlgoRandom     = harmony.AlgoRandom
	AlgoCoordinate = harmony.AlgoCoordinate
	AlgoAnnealing  = harmony.AlgoAnnealing
)

// ParamDef describes one tunable parameter.
type ParamDef = param.Def

// Config is a point in a parameter space.
type Config = param.Config

// Lab is an instantiated simulated cluster + TPC-W client population; it
// describes its tiers to a tuning strategy (Tiers) and exposes the
// underlying simulator for custom experiments.
type Lab = core.Lab

// NewLab builds a lab for the given setup and workload.
func NewLab(cfg LabConfig, w Workload) *Lab { return core.NewLab(cfg, w) }

// SingleWorkloadResult is the §III.A experiment output.
type SingleWorkloadResult = core.SingleWorkloadResult

// TuneWorkload runs the §III.A single-workload tuning experiment.
func TuneWorkload(cfg LabConfig, w Workload, iters, baselineIters int, opts TunerOptions) *SingleWorkloadResult {
	return core.TuneWorkload(cfg, w, iters, baselineIters, opts)
}

// Figure4Result is the cross-workload configuration matrix (Figure 4 and
// Table 3).
type Figure4Result = core.Figure4Result

// RunFigure4 reproduces Figure 4 and Table 3. Its three tuning runs and
// nine evaluation cells fan out over cfg.Workers parallel workers with
// bit-for-bit identical results at any worker count.
func RunFigure4(cfg LabConfig, iters, evalIters int, opts TunerOptions) *Figure4Result {
	return core.RunFigure4(cfg, iters, evalIters, opts)
}

// Figure4Replicated is the Figure 4 matrix with every cell summarized
// across R replicates (mean ± σ ± Student-t 95% CI).
type Figure4Replicated = core.Figure4Replicated

// RunFigure4Replicated reruns Figure 4 R times on independently seeded
// labs and tuners and summarizes every matrix cell, default column and
// native improvement across the replicates. All units fan out over
// cfg.Workers with bit-for-bit identical output at any worker count.
func RunFigure4Replicated(cfg LabConfig, iters, evalIters, R int, opts TunerOptions) *Figure4Replicated {
	return core.RunFigure4Replicated(cfg, iters, evalIters, R, opts)
}

// Figure5Result is the workload-responsiveness experiment output.
type Figure5Result = core.Figure5Result

// RunFigure5 reproduces Figure 5: tuning under a workload that changes
// every phaseLen iterations.
func RunFigure5(cfg LabConfig, seq []Workload, phaseLen, phases int, opts TunerOptions) *Figure5Result {
	return core.RunFigure5(cfg, seq, phaseLen, phases, opts)
}

// Table4Result compares the cluster tuning methods of §III.B.
type Table4Result = core.Table4Result

// RunTable4 reproduces Table 4 on a 2/2/2 cluster with two work lines.
// The baseline and the four method runs fan out over cfg.Workers.
func RunTable4(cfg LabConfig, iters int, opts TunerOptions) *Table4Result {
	return core.RunTable4(cfg, iters, opts)
}

// Table4Replicated is the Table 4 comparison with R replicates per
// method: mean ± σ and a 95% confidence interval across replicates.
type Table4Replicated = core.Table4Replicated

// Table4MethodStats is one row of the replicated Table 4.
type Table4MethodStats = core.Table4MethodStats

// RunTable4Replicated reruns the Table 4 comparison R times on
// independently seeded labs and tuners (seeds derived per replicate via
// ReplicateSeed) and summarizes each method across the replicates. The
// R×5 units fan out over cfg.Workers with bit-for-bit identical output at
// any worker count.
func RunTable4Replicated(cfg LabConfig, iters, R int, opts TunerOptions) *Table4Replicated {
	return core.RunTable4Replicated(cfg, iters, R, opts)
}

// Replicate runs R independent replicates of an experiment unit, fanned
// out over cfg.Workers; replicate r runs under seed ReplicateSeed(cfg.Seed, r),
// so its result depends only on (cfg, r) — not on R, the worker count or
// scheduling. See core.Replicate for the full determinism contract.
func Replicate[T any](cfg LabConfig, R int, unit func(cfg LabConfig, r int) T) []T {
	return core.Replicate(cfg, R, unit)
}

// ReplicateSeed is the pure per-replicate seed derivation Replicate uses
// (rng.TaskSeed), exported so units can derive aligned secondary seeds.
func ReplicateSeed(base uint64, r int) uint64 { return core.ReplicateSeed(base, r) }

// Figure7Result is one automatic-reconfiguration experiment output.
type Figure7Result = core.Figure7Result

// Figure7Options selects the reconfiguration experiment variant.
type Figure7Options = core.Figure7Options

// Figure7a returns the §IV variant (a): 4 proxy + 2 app nodes, workload
// changing from browsing to ordering.
func Figure7a() Figure7Options { return core.Figure7a() }

// Figure7b returns variant (b): 2 proxy + 4 app nodes under browsing.
func Figure7b() Figure7Options { return core.Figure7b() }

// RunFigure7 reproduces a Figure 7 reconfiguration experiment.
func RunFigure7(cfg LabConfig, fo Figure7Options) *Figure7Result {
	return core.RunFigure7(cfg, fo)
}

// RunFigure7Variants runs several Figure 7 variants (e.g. Figure7a and
// Figure7b), fanned out over cfg.Workers parallel workers; element i of
// the result corresponds to fos[i], identical to running each variant
// alone.
func RunFigure7Variants(cfg LabConfig, fos ...Figure7Options) []*Figure7Result {
	return core.RunFigure7Variants(cfg, fos...)
}

// Figure7Replicated is a Figure 7 reconfiguration experiment with R
// replicates: per-iteration WIPS summaries and the before/after jump
// across the replicates that reconfigured.
type Figure7Replicated = core.Figure7Replicated

// RunFigure7Replicated reruns a Figure 7 variant R times on independently
// seeded labs and summarizes every iteration across the replicates. The
// replicates fan out over cfg.Workers with bit-for-bit identical output
// at any worker count.
func RunFigure7Replicated(cfg LabConfig, fo Figure7Options, R int) *Figure7Replicated {
	return core.RunFigure7Replicated(cfg, fo, R)
}

// ForEach runs n independent tasks, task(0) … task(n-1), on a bounded
// pool of workers goroutines (workers <= 0 selects GOMAXPROCS). It is the
// execution layer behind the experiment runners' fan-outs, exported for
// custom experiments; see the determinism contract on core.ForEach: tasks
// must own their state and write only to index-addressed result slots.
func ForEach(workers, n int, task func(i int)) { core.ForEach(workers, n, task) }

// Tuning strategies for cluster-scale tuning (§III.B).
const (
	StrategyDefault      = harmony.StrategyDefault
	StrategyDuplication  = harmony.StrategyDuplication
	StrategyPartitioning = harmony.StrategyPartitioning
	StrategyHybrid       = harmony.StrategyHybrid
)

// AdaptiveOptions configures the combined tuning + reconfiguration loop.
type AdaptiveOptions = core.AdaptiveOptions

// AdaptiveResult is the output of RunAdaptive.
type AdaptiveResult = core.AdaptiveResult

// RunAdaptive runs the full Active Harmony loop of §IV on a lab:
// parameter tuning every iteration and the reconfiguration check at a
// lower frequency, moving nodes between tiers when a tier is overloaded
// while another sits idle.
func RunAdaptive(lab *Lab, iters int, opts AdaptiveOptions) *AdaptiveResult {
	return core.RunAdaptive(lab, iters, opts)
}

// RunAdaptiveReplicated runs R independent replicates of the adaptive
// loop in parallel (each on its own lab seeded per replicate), replacing
// a sequential replication loop; element r depends only on (cfg, r).
func RunAdaptiveReplicated(cfg LabConfig, w Workload, iters, R int, opts AdaptiveOptions) []*AdaptiveResult {
	return core.RunAdaptiveReplicated(cfg, w, iters, R, opts)
}
