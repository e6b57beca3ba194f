// Command webtune regenerates the tables and figures of "Automated
// Cluster-Based Web Service Performance Tuning" (HPDC 2004) on the
// simulated cluster.
//
// Usage:
//
//	webtune [flags] <experiment>
//
// Experiments:
//
//	table1    TPC-W workload mixes
//	sec3a     §III.A single-workload tuning statistics
//	figure4   cross-workload configuration matrix
//	table3    tuned parameter values per workload
//	figure5   responsiveness to changing workloads
//	table4    cluster tuning methods (default/duplication/partitioning)
//	figure7a  reconfiguration: proxy node → application tier
//	figure7b  reconfiguration: application node → proxy tier
//	adaptive  the full §IV loop: tuning + periodic reconfiguration
//	all       everything above
//
// Flags select the scale (-scale tiny|quick|standard|paper), iteration
// counts, the random seed, the parallel fan-out width (-workers, default
// GOMAXPROCS) and the replicate count (-replicates R reruns table4,
// adaptive, figure4 and figure7a/b on R independently seeded labs,
// reporting mean ± σ ± Student-t 95% CI). Results are bit-for-bit
// identical at any -workers value; see -help.
//
// Evaluations are hermetic and memoized by default (-memo): exact
// configuration repeats are served from a content-addressed cache with
// no observable difference. -evalstats prints the cache counters,
// -evalcache FILE persists the cache across runs.
//
// -telemetry DIR writes the run's telemetry streams into DIR under fixed
// names — trace.jsonl, metrics.csv, simprofile.folded, latency.csv and
// spans.jsonl — and prints the profile and bottleneck rollups; the
// streams are byte-identical at any -workers value. Memoization is
// bypassed while telemetry is on.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"webharmony"
	"webharmony/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies surfaced: argv without the program
// name, the two output streams, and the exit code as the return value, so
// tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("webtune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale      = fs.String("scale", "quick", "experiment scale: tiny, quick, standard or paper")
		iters      = fs.Int("iters", 0, "tuning iterations (0 = per-scale default)")
		seed       = fs.Uint64("seed", 1, "random seed")
		guard      = fs.Float64("guard", 0, "extreme-value guard factor in [0, 1) (0 disables)")
		outDir     = fs.String("out", "", "also write results as JSON and CSV into this directory")
		sessions   = fs.Bool("sessions", false, "drive browsers through the TPC-W session graph")
		workers    = fs.Int("workers", 0, "parallel workers for independent experiment units (0 = GOMAXPROCS); results are identical at any worker count")
		replicates = fs.Int("replicates", 1, "independent replicates for table4/adaptive/figure4/figure7a/figure7b; seeds derive per replicate, results report mean ± σ ± 95% CI")
		shift      = fs.Float64("shift", 0.25, "figure5 workload-shift detection factor: sustained relative deviation from the remembered best that restarts the search (0 disables detection; must be finite and >= 0)")
		telemetry  = fs.String("telemetry", "", "write the telemetry streams into this directory and print the profile and bottleneck rollups: trace.jsonl (tuner step trace), metrics.csv (per-tier timeseries), simprofile.folded (simnet event-loop profile, flamegraph.pl/speedscope input), latency.csv (per-(interaction, tier) latency histograms with queue-vs-service attribution) and spans.jsonl (sampled per-request span trees); byte-identical at any -workers")
		spanEvery  = fs.Int("span-sample", 997, "with -telemetry, dump every n-th page's span tree into spans.jsonl (deterministic systematic sample; 0 writes no span trees, must be >= 0)")
		memo       = fs.Bool("memo", true, "memoize hermetic evaluations in a content-addressed cache; results are byte-identical with and without it (bypassed while -telemetry is set)")
		cacheFile  = fs.String("evalcache", "", "persist the evaluation cache to this JSON file: load it before the run if it exists, save it after (warm-starts later runs)")
		evalStats  = fs.Bool("evalstats", false, "print the evaluation-cache counters (lookups, hits, misses, entries, bytes, hit rate) after the run")
	)
	usage := func() {
		fmt.Fprintln(stderr, "usage: webtune [flags] <table1|sec3a|figure4|table3|figure5|table4|figure7a|figure7b|adaptive|all>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	if *replicates < 1 {
		fmt.Fprintf(stderr, "webtune: -replicates must be >= 1, got %d\n", *replicates)
		return 2
	}
	if *iters < 0 {
		fmt.Fprintf(stderr, "webtune: -iters must be >= 0, got %d\n", *iters)
		return 2
	}
	if *telemetry != "" && *spanEvery < 0 {
		fmt.Fprintf(stderr, "webtune: -span-sample must be >= 0, got %d\n", *spanEvery)
		return 2
	}

	cfg, defIters, err := labFor(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "webtune: %v\n", err)
		return 2
	}
	cfg.Seed = *seed
	cfg.Sessions = *sessions
	cfg.Workers = *workers

	// The evaluation cache only skips exact re-simulations, so it is on by
	// default; -evalcache warm-starts it from (and saves it back to) disk.
	var cache *webharmony.EvalCache
	if *memo || *cacheFile != "" {
		cache = webharmony.NewEvalCache()
		cfg.EvalCache = cache
	}
	if *cacheFile != "" {
		data, err := os.ReadFile(*cacheFile)
		switch {
		case err == nil:
			snap, err := webharmony.LoadEvalCacheSnapshot(data)
			if err != nil {
				fmt.Fprintf(stderr, "webtune: -evalcache: %v\n", err)
				return 2
			}
			cache.AddSnapshot(snap)
		case !os.IsNotExist(err):
			fmt.Fprintf(stderr, "webtune: -evalcache: %v\n", err)
			return 2
		}
	}
	n := *iters
	if n == 0 {
		n = defIters
	}
	R := *replicates
	opts := webharmony.TunerOptions{Seed: *seed, GuardFactor: *guard}
	shiftOpts := opts
	shiftOpts.ShiftFactor = *shift
	// A -guard or -shift the tuner would silently ignore fails here,
	// before any simulation.
	if err := shiftOpts.Validate(); err != nil {
		fmt.Fprintf(stderr, "webtune: %v\n", err)
		return 2
	}

	what := fs.Arg(0)
	known := map[string]bool{"table1": true, "sec3a": true, "figure4": true, "table3": true,
		"figure5": true, "table4": true, "figure7a": true, "figure7b": true,
		"adaptive": true, "all": true}
	if !known[what] {
		fmt.Fprintf(stderr, "webtune: unknown experiment %q\n", what)
		return 2
	}
	// Create every requested output sink up front: an unwritable path must
	// fail before hours of simulation, not after.
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "webtune: -out: %v\n", err)
			return 2
		}
	}
	var (
		collector *webharmony.TelemetryCollector
		sinks     []*os.File // one per telemetryStreams entry
	)
	if *telemetry != "" {
		if err := os.MkdirAll(*telemetry, 0o755); err != nil {
			fmt.Fprintf(stderr, "webtune: -telemetry: %v\n", err)
			return 2
		}
		for _, st := range telemetryStreams {
			f, err := os.Create(filepath.Join(*telemetry, st.name))
			if err != nil {
				for _, f := range sinks {
					f.Close()
				}
				fmt.Fprintf(stderr, "webtune: -telemetry: %v\n", err)
				return 2
			}
			sinks = append(sinks, f)
		}
		collector = webharmony.NewTelemetryCollector()
		cfg.Telemetry = collector
		cfg.SimProfile = true
		cfg.Spans = true
		cfg.SpanSampleEvery = *spanEvery
	}
	// An -out file that cannot be written is reported when it happens, but
	// the run goes on: the exit code turns 1 once the telemetry is flushed.
	exportFailed := false
	save := func(err error) {
		if err != nil {
			fmt.Fprintf(stderr, "webtune: -out: %v\n", err)
			exportFailed = true
		}
	}
	// export writes a result as <name>.json and, when csv is non-nil,
	// <name>.csv into the -out directory, if there is one.
	export := func(name string, result any, csv func(io.Writer) error) {
		if *outDir == "" {
			return
		}
		save(createFile(filepath.Join(*outDir, name+".json"), func(w io.Writer) error {
			return webharmony.WriteJSON(w, result)
		}))
		if csv != nil {
			save(createFile(filepath.Join(*outDir, name+".csv"), csv))
		}
	}

	run := func(name string, fn func()) {
		if what != name && what != "all" {
			return
		}
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s ===\n", name)
		fn()
		fmt.Fprintf(stdout, "--- %s done in %.1fs ---\n\n", name, time.Since(start).Seconds())
	}

	run("table1", func() { webharmony.PrintTable1(stdout) })

	run("sec3a", func() {
		// The two workload runs are independent; fan them out and print
		// in the fixed order afterwards.
		ws := []webharmony.Workload{webharmony.Browsing, webharmony.Ordering}
		results := make([]*webharmony.SingleWorkloadResult, len(ws))
		webharmony.ForEach(cfg.Workers, len(ws), func(i int) {
			c := cfg.WithTelemetryUnit("sec3a:" + ws[i].String())
			results[i] = webharmony.TuneWorkload(c, ws[i], n, max(6, n/10), opts)
		})
		for _, res := range results {
			webharmony.PrintSection3A(stdout, res)
		}
	})

	var fig4 *webharmony.Figure4Result
	ensureFig4 := func() *webharmony.Figure4Result {
		if fig4 == nil {
			c := cfg.WithTelemetryUnit("figure4")
			if R > 1 {
				// The replicated figure4 path owns the "figure4" recorder
				// names; this single run then only serves table3.
				c = cfg.WithTelemetryUnit("table3")
			}
			fig4 = webharmony.RunFigure4(c, n, max(5, n/12), opts)
		}
		return fig4
	}
	run("figure4", func() {
		if R > 1 {
			res := webharmony.RunFigure4Replicated(cfg.WithTelemetryUnit("figure4"), n, max(5, n/12), R, opts)
			webharmony.PrintFigure4Replicated(stdout, res)
			export("figure4", res, func(w io.Writer) error {
				return webharmony.WriteFigure4ReplicatedCSV(w, res)
			})
			return
		}
		res := ensureFig4()
		webharmony.PrintFigure4(stdout, res)
		export("figure4", res, func(w io.Writer) error {
			return webharmony.WriteFigure4CSV(w, res)
		})
	})
	run("table3", func() { webharmony.PrintTable3(stdout, ensureFig4()) })

	run("figure5", func() {
		seq := []webharmony.Workload{webharmony.Browsing, webharmony.Shopping, webharmony.Ordering}
		phase := max(10, n/4)
		res := webharmony.RunFigure5(cfg.WithTelemetryUnit("figure5"), seq, phase, 4, shiftOpts)
		webharmony.PrintFigure5(stdout, res)
		export("figure5", res, func(w io.Writer) error {
			return webharmony.WriteFigure5CSV(w, res)
		})
	})

	run("table4", func() {
		c := cfg.WithTelemetryUnit("table4")
		c.Browsers = cfg.Browsers * 5 / 2 // 6-node cluster, larger population
		if R > 1 {
			res := webharmony.RunTable4Replicated(c, n, R, opts)
			webharmony.PrintTable4Replicated(stdout, res)
			export("table4", res, func(w io.Writer) error {
				return webharmony.WriteTable4ReplicatedCSV(w, res)
			})
			return
		}
		res := webharmony.RunTable4(c, n, opts)
		webharmony.PrintTable4(stdout, res)
		export("table4", res, func(w io.Writer) error {
			return webharmony.WriteTable4CSV(w, res)
		})
	})

	fig7cfg := cfg
	fig7cfg.Browsers = cfg.Browsers * 7 / 2 // the 7-node cluster serves ~3.5x the clients
	if fig7cfg.Warm < 12 {
		fig7cfg.Warm = 12 // re-warm caches fully after each restart
	}
	// The requested Figure 7 variants run as one parallel fan-out; with
	// "all" both variants compute concurrently on the worker pool.
	var (
		fig7names = []string{"figure7a", "figure7b"}
		fig7opts  = []webharmony.Figure7Options{webharmony.Figure7a(), webharmony.Figure7b()}
		fig7res   map[string]*webharmony.Figure7Result
	)
	ensureFig7 := func() map[string]*webharmony.Figure7Result {
		if fig7res == nil {
			var names []string
			var fos []webharmony.Figure7Options
			for i, name := range fig7names {
				if what == name || what == "all" {
					names = append(names, name)
					fos = append(fos, fig7opts[i])
				}
			}
			c := fig7cfg.WithTelemetryUnit("figure7")
			if len(names) == 1 {
				c = fig7cfg.WithTelemetryUnit(names[0])
			}
			results := webharmony.RunFigure7Variants(c, fos...)
			fig7res = make(map[string]*webharmony.Figure7Result, len(names))
			for i, name := range names {
				fig7res[name] = results[i]
			}
		}
		return fig7res
	}
	showFig7 := func(name string) {
		if R > 1 {
			fo := fig7opts[0]
			if name == "figure7b" {
				fo = fig7opts[1]
			}
			res := webharmony.RunFigure7Replicated(fig7cfg.WithTelemetryUnit(name), fo, R)
			webharmony.PrintFigure7Replicated(stdout, res)
			export(name, res, func(w io.Writer) error {
				return webharmony.WriteFigure7ReplicatedCSV(w, res)
			})
			return
		}
		res := ensureFig7()[name]
		webharmony.PrintFigure7(stdout, res)
		export(name, res, func(w io.Writer) error {
			return webharmony.WriteFigure7CSV(w, res)
		})
		if *outDir != "" && res.Timeline != nil {
			save(createFile(filepath.Join(*outDir, name+"-utilization.csv"), res.Timeline.WriteCSV))
		}
	}
	run("figure7a", func() { showFig7("figure7a") })
	run("figure7b", func() { showFig7("figure7b") })

	run("adaptive", func() {
		// The full §IV loop: tuning every iteration, reconfiguration
		// checks at a lower frequency, on a mis-provisioned cluster.
		c := fig7cfg.WithTelemetryUnit("adaptive")
		c.ProxyNodes, c.AppNodes, c.DBNodes = 2, 4, 1
		if c.Warm < 12 {
			c.Warm = 12
		}
		aOpts := webharmony.AdaptiveOptions{
			Strategy:      webharmony.StrategyDuplication,
			Tuner:         opts,
			ReconfigEvery: 8,
		}
		const aIters = 24
		if R > 1 {
			// R independent replicates, fanned out in parallel.
			results := webharmony.RunAdaptiveReplicated(c, webharmony.Browsing, aIters, R, aOpts)
			printAdaptiveReplicated(stdout, results)
			export("adaptive", results, nil)
			return
		}
		lab := webharmony.NewLab(c, webharmony.Browsing)
		res := webharmony.RunAdaptive(lab, aIters, aOpts)
		printAdaptive(stdout, res)
		export("adaptive", res, nil)
	})

	// Settle the evaluation cache first: save the snapshot and report the
	// counters.
	if *cacheFile != "" {
		data, err := cache.Snapshot().Marshal()
		if err == nil {
			err = os.WriteFile(*cacheFile, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "webtune: -evalcache: %v\n", err)
			return 1
		}
	}
	if *evalStats {
		switch {
		case cache == nil:
			fmt.Fprintln(stdout, "evalcache off (-memo=false)")
		default:
			if collector != nil {
				// Memoization is bypassed while telemetry is attached (a hit
				// would skip per-evaluation recorder registration), so the
				// counters only reflect uninstrumented evaluations — none,
				// for a fully instrumented run.
				fmt.Fprintln(stdout, "evalcache bypassed while telemetry is attached")
			}
			if err := webharmony.WriteEvalStats(stdout, cache.Stats()); err != nil {
				fmt.Fprintf(stderr, "webtune: -evalstats: %v\n", err)
				return 1
			}
		}
	}

	// Flush the telemetry sinks last, once every experiment has finished.
	if collector != nil {
		for i, st := range telemetryStreams {
			if err := writeFile(sinks[i], func(w io.Writer) error { return st.write(collector, w) }); err != nil {
				fmt.Fprintf(stderr, "webtune: -telemetry: %v\n", err)
				return 1
			}
		}
		for _, rollup := range []func(io.Writer) error{collector.WriteSimProfileRollup, collector.WriteLatencyRollup} {
			if err := rollup(stdout); err != nil {
				fmt.Fprintf(stderr, "webtune: -telemetry: %v\n", err)
				return 1
			}
		}
	}
	if exportFailed {
		return 1
	}
	return 0
}

// printAdaptive renders one adaptive run's per-iteration series.
func printAdaptive(w io.Writer, res *webharmony.AdaptiveResult) {
	for i, wips := range res.WIPS {
		marker := ""
		for _, mv := range res.Moves {
			if mv.Iteration == i {
				marker = "   <- " + mv.Decision.String()
			}
		}
		fmt.Fprintf(w, "iter %2d  layout %s  %7.1f WIPS%s\n", i+1, res.Layouts[i], wips, marker)
	}
}

// printAdaptiveReplicated renders one summary line per replicate (final
// layout, second-half mean WIPS, moves) and the across-replicate summary.
func printAdaptiveReplicated(w io.Writer, results []*webharmony.AdaptiveResult) {
	steady := make([]float64, len(results))
	for r, res := range results {
		half := res.WIPS[len(res.WIPS)/2:]
		sum := 0.0
		for _, v := range half {
			sum += v
		}
		steady[r] = sum / float64(len(half))
		fmt.Fprintf(w, "replicate %d: final layout %s, steady %7.1f WIPS, %d move(s)\n",
			r, res.Layouts[len(res.Layouts)-1], steady[r], len(res.Moves))
	}
	s := stats.Summarize(steady)
	fmt.Fprintf(w, "steady-state WIPS across %d replicates: %.1f ± %.1f (95%% CI ±%.1f)\n",
		len(results), s.Mean, s.StdDev, s.CI95)
}

// labFor maps a scale name to a lab configuration and default iterations.
func labFor(scale string) (webharmony.LabConfig, int, error) {
	switch scale {
	case "tiny":
		return webharmony.TinyLab(), 16, nil
	case "quick":
		return webharmony.QuickLab(), 80, nil
	case "standard":
		return webharmony.StandardLab(), 200, nil
	case "paper":
		return webharmony.PaperLab(), 200, nil
	default:
		return webharmony.LabConfig{}, 0, fmt.Errorf("unknown scale %q", scale)
	}
}

// telemetryStreams are the files -telemetry writes, in flush order.
var telemetryStreams = []struct {
	name  string
	write func(*webharmony.TelemetryCollector, io.Writer) error
}{
	{"trace.jsonl", (*webharmony.TelemetryCollector).WriteTrace},
	{"metrics.csv", (*webharmony.TelemetryCollector).WriteMetrics},
	{"simprofile.folded", (*webharmony.TelemetryCollector).WriteSimProfile},
	{"latency.csv", (*webharmony.TelemetryCollector).WriteLatency},
	{"spans.jsonl", (*webharmony.TelemetryCollector).WriteSpans},
}

// createFile creates path and fills it through writeFile.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeFile(f, write)
}

// writeFile fills f with write and closes it; the error names the file.
func writeFile(f *os.File, write func(io.Writer) error) error {
	err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", f.Name(), err)
	}
	return nil
}
