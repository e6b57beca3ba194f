package webharmony

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/db"
	"webharmony/internal/harmony"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/simplex"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// benchLab is the setup used by the experiment benchmarks: the quick-scale
// cluster (each full experiment below runs in seconds rather than the
// paper's multi-hour wall-clock).
func benchLab() LabConfig { return QuickLab() }

// tuneStep runs one tuning iteration exactly as the live §IV loop
// (RunAdaptive) does: stage the strategy's next proposal on the lab,
// restart and measure one window, then commit the measurement.
func tuneStep(st *harmony.Strategy, lab *Lab) float64 {
	for n, cfg := range st.Lookahead(1)[0] {
		lab.SetNodeConfig(n, cfg)
	}
	m := lab.MeasureIteration(true)
	st.CommitStep(m.WIPS, m.LineWIPS)
	return m.WIPS
}

// --- Table 1: TPC-W workload mixes -----------------------------------------

// BenchmarkTable1MixGeneration draws interactions from each Table 1 mix;
// the mix percentages themselves are verified by the tpcw test suite.
func BenchmarkTable1MixGeneration(b *testing.B) {
	samplers := make([]*tpcw.Sampler, 0, 3)
	for i, w := range Workloads() {
		samplers = append(samplers, tpcw.NewSampler(w, rng.New(uint64(i)+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samplers[i%len(samplers)].Next()
	}
}

// --- Figure 3: simplex method steps -----------------------------------------

// BenchmarkFigure3SimplexStep measures one ask/tell cycle of the adapted
// Nelder-Mead kernel on a Table 3-sized (23-parameter) space.
func BenchmarkFigure3SimplexStep(b *testing.B) {
	var defs []param.Def
	for _, t := range cluster.Tiers() {
		defs = append(defs, websim.SpaceFor(t).Defs()...)
	}
	for i := range defs {
		defs[i].Name = defs[i].Name + string(rune('a'+i%26)) // dedupe
	}
	sp := param.MustSpace(defs...)
	nm := simplex.NewNelderMead(sp, simplex.Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := nm.Ask()
		nm.Tell(float64(cfg[0]))
	}
}

// --- §III.A: single-workload tuning -----------------------------------------

// BenchmarkSection3ATuningIteration measures one complete tuning iteration
// (restart + warm + measure + cool + simplex update) on the 4-machine lab.
func BenchmarkSection3ATuningIteration(b *testing.B) {
	lab := NewLab(benchLab(), Browsing)
	st := harmony.NewStrategy(harmony.StrategyDefault, lab, 0, harmony.Options{Seed: 1})
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		last = tuneStep(st, lab)
	}
	b.ReportMetric(last, "WIPS")
}

// BenchmarkSection3A reproduces the §III.A browsing and ordering numbers.
func BenchmarkSection3A(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []Workload{Browsing, Ordering} {
			res := TuneWorkload(benchLab(), w, 100, 8, harmony.Options{Seed: 7})
			b.ReportMetric(100*res.AvgImprovement, w.String()+"_improvement_%")
			b.ReportMetric(100*res.FracBetter, w.String()+"_beats_default_%")
		}
	}
}

// --- Figure 4 + Table 3: cross-workload configurations ----------------------

// BenchmarkFigure4CrossWorkload reproduces the Figure 4 matrix (and the
// Table 3 tuned configurations, printed under -v).
func BenchmarkFigure4CrossWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure4(benchLab(), 80, 6, harmony.Options{Seed: 4})
		for _, w := range Workloads() {
			b.ReportMetric(100*res.Improvement[w], w.String()+"_improvement_%")
		}
		if i == 0 {
			b.Logf("Figure 4 matrix: %v (defaults %v)", res.Matrix, res.Default)
		}
	}
}

// BenchmarkFigure4ParallelSpeedup measures the wall-clock effect of the
// bounded worker pool on the Figure 4 fan-out (3 independent tuning runs,
// then 9 evaluation matrix cells). The exported results are bit-for-bit
// identical at every worker count (see TestRunFigure4ParallelDeterminism);
// on a 4-core machine workers=4 should be ≥2× faster than workers=1.
func BenchmarkFigure4ParallelSpeedup(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchLab()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				RunFigure4(cfg, 20, 4, harmony.Options{Seed: 4})
			}
		})
	}
}

// BenchmarkTable3FullTuning measures the full 23-parameter tuning run that
// produces one column of Table 3 (200 iterations, as in the paper).
func BenchmarkTable3FullTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := TuneWorkload(benchLab(), Shopping, 200, 6, harmony.Options{Seed: 9})
		b.ReportMetric(res.BestWIPS, "best_WIPS")
		if i == 0 {
			for tier, cfg := range res.BestConfigs {
				b.Logf("Table 3 shopping column, %v tier: %v", tier, cfg)
			}
		}
	}
}

// --- Figure 5: responsiveness to workload changes ---------------------------

// BenchmarkFigure5Responsiveness reproduces the changing-workload run.
func BenchmarkFigure5Responsiveness(b *testing.B) {
	seq := []Workload{Browsing, Shopping, Ordering}
	for i := 0; i < b.N; i++ {
		res := RunFigure5(benchLab(), seq, 25, 4,
			harmony.Options{Seed: 5, ShiftFactor: 0.25})
		sum := 0
		for _, r := range res.Recovery {
			sum += r
		}
		if len(res.Recovery) > 0 {
			b.ReportMetric(float64(sum)/float64(len(res.Recovery)), "recovery_iters")
		}
	}
}

// BenchmarkFigure5Speculative measures the wall-clock effect of the
// speculative lookahead engine on the responsiveness run: candidate
// evaluations fan out over hermetic labs while commits stay in proposal
// order, so the result is bit-for-bit identical at every worker count
// (see TestFigure5SpeculativeMatchesSequential). Short phases and a
// sensitive shift factor keep the tell-independent fraction high — every
// shift restart re-opens a full initial-simplex batch of 8–10 concurrent
// candidates — so workers=4 should be ≥1.5× faster than workers=1 on a
// 4-core machine (like BenchmarkFigure4ParallelSpeedup, the gain needs
// real cores; the committed results are identical regardless).
func BenchmarkFigure5Speculative(b *testing.B) {
	seq := []Workload{Browsing, Shopping, Ordering}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchLab()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				res := RunFigure5(cfg, seq, 10, 4,
					harmony.Options{Seed: 5, ShiftFactor: 0.05})
				b.ReportMetric(float64(res.Restarts), "restarts")
			}
		})
	}
}

// --- Evaluation memoization (DESIGN.md §10) ---------------------------------

// benchMemo runs one experiment body with the evaluation cache off and
// on. Each b.N iteration builds a fresh cache, so memo=on measures a
// cold run (every hit earned within the run, none carried across
// iterations) — the honest wall-clock comparison.
func benchMemo(b *testing.B, run func(cfg LabConfig)) {
	b.Helper()
	for _, memo := range []bool{false, true} {
		name := "memo=off"
		if memo {
			name = "memo=on"
		}
		b.Run(name, func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				cfg := benchLab()
				if memo {
					cfg.EvalCache = NewEvalCache()
				}
				run(cfg)
				if memo {
					hitRate = cfg.EvalCache.Stats().HitRate()
				}
			}
			if memo {
				b.ReportMetric(100*hitRate, "hit_%")
			}
		})
	}
}

// BenchmarkFigure4Memoized measures the content-addressed evaluation
// cache on the Figure 4 run with 16 evaluation windows per baseline and
// matrix cell: under hermetic evaluation the windows of one (config,
// workload) pair share a key, the 9 matrix cells re-measure just 9
// distinct pairs, the diagonal cells re-measure configurations the
// tuning phase already evaluated, and the tuners occasionally re-propose
// lattice points — so the cache absorbs ~43% of the 432 evaluations.
// memo=on must produce byte-identical results (TestMemoByteEquality) in
// ≥25% less wall-clock than memo=off (measured: 40%).
func BenchmarkFigure4Memoized(b *testing.B) {
	benchMemo(b, func(cfg LabConfig) {
		RunFigure4(cfg, 80, 16, harmony.Options{Seed: 4})
	})
}

// BenchmarkTable4Memoized measures the cache on the Table 4 method
// comparison (four tuning methods plus the baseline on the 2/2/2
// cluster), same contract as BenchmarkFigure4Memoized. 32 iterations
// keeps the run inside the methods' initial-exploration phase, where the
// four strategies walk overlapping lattice neighbourhoods of the shared
// default configuration and the cache absorbs ~31% of the evaluations
// across arms (measured: 30% less wall-clock); at longer horizons the
// methods diverge and the hit rate decays toward the within-method
// re-proposal rate (16% at 100 iterations).
func BenchmarkTable4Memoized(b *testing.B) {
	benchMemo(b, func(cfg LabConfig) {
		c := cfg
		c.Browsers = 400
		RunTable4(c, 32, harmony.Options{Seed: 5})
	})
}

// BenchmarkFigure4Instrumented runs Figure 4 the way webtune -telemetry
// does: every stream on (trace, metrics, event-loop profile, latency
// histograms, sampled spans), memo table attached, all five streams
// written. Instrumentation bypasses the memo table (DESIGN.md §10), so
// every evaluation simulates. live_MB is the heap still in use after the
// run while the collector is alive: each finished evaluation unit keeps
// only what the writers print, never its lab (DESIGN.md §9).
func BenchmarkFigure4Instrumented(b *testing.B) {
	var live runtime.MemStats
	for i := 0; i < b.N; i++ {
		cfg := TinyLab()
		cfg.EvalCache = NewEvalCache()
		col := NewTelemetryCollector()
		cfg.Telemetry = col
		cfg.SimProfile, cfg.Spans, cfg.SpanSampleEvery = true, true, 997
		RunFigure4(cfg.WithTelemetryUnit("figure4"), 30, 3, harmony.Options{Seed: 4})
		for _, write := range []func(io.Writer) error{
			col.WriteTrace, col.WriteMetrics, col.WriteSimProfile, col.WriteLatency, col.WriteSpans,
		} {
			if err := write(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&live)
		runtime.KeepAlive(col)
		b.StartTimer()
	}
	b.ReportMetric(float64(live.HeapAlloc)/(1<<20), "live_MB")
}

// --- Table 4: cluster tuning methods -----------------------------------------

// BenchmarkTable4ClusterTuning reproduces the Table 4 method comparison on
// the 2/2/2 cluster.
func BenchmarkTable4ClusterTuning(b *testing.B) {
	cfg := benchLab()
	cfg.Browsers = 400
	for i := 0; i < b.N; i++ {
		res := RunTable4(cfg, 100, harmony.Options{Seed: 5})
		for _, r := range res.Rows {
			if r.Method == "none" {
				continue
			}
			b.ReportMetric(100*r.Improvement, r.Method+"_improvement_%")
			b.ReportMetric(float64(r.Iterations), r.Method+"_iters")
		}
		if i == 0 {
			for _, r := range res.Rows {
				b.Logf("Table 4: %-13s WIPS=%.1f σ=%.1f imp=%.1f%% iters=%d",
					r.Method, r.WIPS, r.StdDev, 100*r.Improvement, r.Iterations)
			}
		}
	}
}

// --- Figure 7: automatic reconfiguration -------------------------------------

func benchFig7Lab() LabConfig {
	cfg := benchLab()
	cfg.Browsers = 600
	return cfg
}

// BenchmarkFigure7aReconfiguration reproduces Figure 7(a): a proxy node
// moves to the application tier when the workload turns to ordering.
func BenchmarkFigure7aReconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure7(benchFig7Lab(), Figure7a())
		if !res.Moved {
			b.Fatal("reconfiguration did not trigger")
		}
		b.ReportMetric(100*res.Improvement, "improvement_%")
	}
}

// BenchmarkFigure7bReconfiguration reproduces Figure 7(b): an application
// node moves to the proxy tier under a browsing workload.
func BenchmarkFigure7bReconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure7(benchFig7Lab(), Figure7b())
		if !res.Moved {
			b.Fatal("reconfiguration did not trigger")
		}
		b.ReportMetric(100*res.Improvement, "improvement_%")
	}
}

// --- Ablations (design choices called out in DESIGN.md) ----------------------

// BenchmarkAblationTunerAlgorithms compares the simplex kernel against the
// random and coordinate baselines on the same tuning problem.
func BenchmarkAblationTunerAlgorithms(b *testing.B) {
	algos := []struct {
		name string
		algo harmony.Algorithm
	}{
		{"nelder-mead", harmony.AlgoNelderMead},
		{"random", harmony.AlgoRandom},
		{"coordinate", harmony.AlgoCoordinate},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab := NewLab(benchLab(), Shopping)
				st := harmony.NewStrategy(harmony.StrategyDuplication, lab, 0,
					harmony.Options{Algorithm: a.algo, Seed: 3})
				for k := 0; k < 50; k++ {
					tuneStep(st, lab)
				}
				best, _ := st.Best()
				b.ReportMetric(best, "best_WIPS")
			}
		})
	}
}

// BenchmarkAblationExtremeValueGuard compares tuning with and without the
// §III.A extreme-value guard.
func BenchmarkAblationExtremeValueGuard(b *testing.B) {
	for _, guard := range []float64{0, 0.3} {
		name := "off"
		if guard > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab := NewLab(benchLab(), Browsing)
				st := harmony.NewStrategy(harmony.StrategyDuplication, lab, 0,
					harmony.Options{Seed: 8, GuardFactor: guard})
				for k := 0; k < 50; k++ {
					tuneStep(st, lab)
				}
				perf := st.Perf()
				b.ReportMetric(stats.StdDevOf(perf[len(perf)/2:]), "second_half_stddev")
				best, _ := st.Best()
				b.ReportMetric(best, "best_WIPS")
			}
		})
	}
}

// BenchmarkAblationMemoryCoupling quantifies the shared-memory coupling: a
// memory-hungry database configuration vs the default on the same load.
func BenchmarkAblationMemoryCoupling(b *testing.B) {
	dsp := db.Space()
	bloated := dsp.DefaultConfig()
	bloated[dsp.IndexOf(db.ParamThreadConcurrency)] = 128
	bloated[dsp.IndexOf(db.ParamJoinBufferSize)] = 16777216
	bloated[dsp.IndexOf(db.ParamThreadStack)] = 2097152
	bloated[dsp.IndexOf(db.ParamMaxConnections)] = 1001
	for _, tc := range []struct {
		name string
		cfg  param.Config
	}{{"default", dsp.DefaultConfig()}, {"overcommitted", bloated}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab := NewLab(benchLab(), Shopping)
				lab.Sys.SetTierConfig(cluster.TierDB, tc.cfg)
				m := lab.MeasureIteration(true)
				b.ReportMetric(m.WIPS, "WIPS")
			}
		})
	}
}

// BenchmarkAblationHybridStrategy measures the §III.B future-work hybrid
// (duplication then partitioning) against plain duplication.
func BenchmarkAblationHybridStrategy(b *testing.B) {
	cfg := benchLab()
	cfg.Browsers = 400
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = 2, 2, 2
	cfg.WorkLines = 2
	for _, kind := range []harmony.StrategyKind{harmony.StrategyDuplication, harmony.StrategyHybrid} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab := NewLab(cfg, Shopping)
				st := harmony.NewStrategy(kind, lab, 2, harmony.Options{Seed: 6})
				for k := 0; k < 60; k++ {
					tuneStep(st, lab)
				}
				best, _ := st.Best()
				b.ReportMetric(best, "best_WIPS")
			}
		})
	}
}

// BenchmarkFullIterationThroughput measures raw simulator speed: simulated
// seconds per wall second on the standard 4-machine lab.
func BenchmarkFullIterationThroughput(b *testing.B) {
	lab := NewLab(benchLab(), Shopping)
	lab.Driver.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Sys.Eng.RunUntil(lab.Sys.Eng.Now() + 1) // one simulated second
	}
}
