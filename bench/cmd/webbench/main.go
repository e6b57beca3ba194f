// Command webbench is the repository's benchmark: four workloads over the
// simulator, the tuner and the tuning server, each printing its
// end-to-end metrics by name and unit after checking its outputs, plus a
// traced mode that reports per-layer metrics. See bench/README.md.
//
//	webbench -workload figure4 -seed 1 -seconds 12 -trace 0
//	webbench -workload all -runs 3 -out a.json
//	webbench -compare a.json b.json
//
// The last line a single run prints is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
)

var workloads = []*workload{
	{
		name:  "figure4",
		why:   "the headline experiment with the real tuner's traffic: evalcache hits, ForEach fan-out, tuner and simulator together",
		size:  figure4Size,
		start: func(e env) (instance, error) { return startFigure4(e, false) },
	},
	{
		name:  "figure4-instrumented",
		why:   "the same run with all five telemetry streams on, which bypasses the memo cache and holds everything in memory",
		size:  figure4Size,
		start: func(e env) (instance, error) { return startFigure4(e, true) },
	},
	{
		name:  "window-paper",
		why:   "sequential paper-scale windows of distinct configurations: only the simulation kernel works, no cache hits, no parallelism",
		size:  windowSize,
		start: startWindowPaper,
	},
	{
		name:  "harmonyd",
		why:   "closed-loop tuning sessions against the in-process hproto server: the only real server surface, no simulation",
		size:  harmonydSize,
		start: startHarmonyd,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("webbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all (each in its own process)")
		seed     = fs.Uint64("seed", 1, "seed of every synthetic input, the labs and the tuners")
		seconds  = fs.Float64("seconds", 12, "length of each timed phase")
		trace    = fs.Int("trace", 0, "1 also runs a traced phase and reports the per-layer metrics")
		traceDir = fs.String("trace-dir", "", "where a traced run writes spans.jsonl and cpu.pprof (default <scratch>/trace/<workload>)")
		scratch  = fs.String("scratch", ".bench_build", "directory for every file a run writes")
		runs     = fs.Int("runs", 1, "runs per workload, each in its own process")
		out      = fs.String("out", "", "write every run's full result to this result-set file")
		result   = fs.String("result", "", "write this single run's full result as JSON")
		compare  = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		bench    = fs.String("benchmark", "BENCHMARK.json", "file holding the bounds -compare applies")
		list     = fs.Bool("list", false, "print the metric tables as markdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		writeMetricTables(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "webbench: -compare needs two result-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *bench, stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(stderr, "webbench: bad arguments (want -workload W -seed N -seconds S -trace 0|1)")
		return 2
	}
	if *name != "all" && findWorkload(*name) == nil {
		fmt.Fprintf(stderr, "webbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "webbench: %v\n", err)
		return 2
	}
	if *name == "all" || *runs > 1 || *out != "" {
		return orchestrate(*name, *seed, *seconds, *trace == 1, *runs, *scratch, *out, stdout, stderr)
	}

	w := findWorkload(*name)
	dir := *traceDir
	if dir == "" {
		dir = filepath.Join(*scratch, "trace", w.name)
	}
	e := env{seed: *seed, sz: defaultSizes(), scratch: *scratch}
	res := execute(w, e, *seconds, *trace == 1, dir)
	printResult(stdout, res)
	if *result != "" {
		if err := writeJSON(*result, res); err != nil {
			fmt.Fprintf(stderr, "webbench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "webbench: %s: %s\n", w.name, e)
		}
		return 1
	}
	return 0
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, res *result) {
	mode := 0
	if res.Trace {
		mode = 1
	}
	h := res.Header
	fmt.Fprintf(w, "webbench %s seed=%d seconds=%g trace=%d\n", res.Workload, h.Seed, res.Seconds, mode)
	fmt.Fprintf(w, "commit=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q\n", h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.CPUModel)
	fmt.Fprintf(w, "size: %s\n", h.Size)
	if res.Correct {
		for _, d := range endToEnd {
			m := res.Metrics[d.Name]
			fmt.Fprintf(w, "%-12s %12.6g %-4s %s\n", d.Name, m.Value, m.Unit, describe(d.Name, res))
		}
		u := res.Units
		fmt.Fprintf(w, "unit_s       p50 %.6g  p95 %.6g  p99 %.6g  (n=%d)\n", u.P50, u.P95, u.P99, u.N)
		if r := res.RTT; r != nil {
			fmt.Fprintf(w, "rtt_us       p50 %.6g  p95 %.6g  p99 %.6g  (n=%d)\n", r.P50, r.P95, r.P99, r.N)
		}
		if res.Layers != nil {
			for _, d := range perLayer {
				m := res.Layers[d.Name]
				fmt.Fprintf(w, "  %-32s %12.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "sim_digest %s\n", res.Digest)
	fmt.Fprintf(w, "checks: %s\n", strings.Join(res.Checks, ", "))
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	if res.Trace {
		line.Metrics = res.Layers
		if line.Metrics == nil {
			line.Metrics = map[string]metric{}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

func describe(name string, res *result) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf("median of %d set-ups", len(res.Setup))
	case "wall_s":
		return fmt.Sprintf("median of %d units", res.Units.N)
	}
	return ""
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// orchestrate runs each selected workload runs times, each in a fresh
// process so its peak RSS is its own, and writes the result set.
func orchestrate(name string, seed uint64, seconds float64, traced bool, runs int, scratch, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "webbench: %v\n", err)
		return 1
	}
	var set resultSet
	code := 0
	for _, w := range workloads {
		if name != "all" && w.name != name {
			continue
		}
		for r := 0; r < runs; r++ {
			path := filepath.Join(scratch, fmt.Sprintf("result-%s-%d.json", w.name, r))
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-scratch", scratch, "-result", path)
			cmd.Stdout, cmd.Stderr = stderr, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "webbench: %s run %d: %v\n", w.name, r, err)
				code = 1
			}
			var res result
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				fmt.Fprintf(stderr, "webbench: %s run %d: %v\n", w.name, r, err)
				code = 1
				continue
			}
			os.Remove(path)
			set.Runs = append(set.Runs, &res)
		}
	}
	if !digestsAgree(set.Runs, stdout) {
		code = 1
	}
	summarize(stdout, set.Runs)
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fmt.Fprintf(stderr, "webbench: %v\n", err)
			return 1
		}
	}
	return code
}

// digestsAgree checks, from outside, that an instrumented figure4 run
// measured exactly what the bare run measured on the same seed.
func digestsAgree(runs []*result, w io.Writer) bool {
	bare := map[uint64]string{}
	for _, r := range runs {
		if r.Workload == "figure4" && r.Correct {
			bare[r.Header.Seed] = r.Digest
		}
	}
	ok := true
	for _, r := range runs {
		if d, found := bare[r.Header.Seed]; found && r.Workload == "figure4-instrumented" && r.Correct {
			same := d == r.Digest
			fmt.Fprintf(w, "figure4 vs figure4-instrumented sim_digest, seed %d: %s / %s (equal: %t)\n", r.Header.Seed, d, r.Digest, same)
			ok = ok && same
		}
	}
	return ok
}

// summarize prints each workload's end-to-end medians over its runs.
func summarize(w io.Writer, runs []*result) {
	fmt.Fprintf(w, "| workload | runs | correct |")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %s (%s) |", d.Name, d.Unit)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|---|---|", strings.Repeat("---|", len(endToEnd)), "\n")
	for _, wl := range workloads {
		sel := byWorkload(runs, wl.name)
		if len(sel) == 0 {
			continue
		}
		correct := 0
		for _, r := range sel {
			if r.Correct {
				correct++
			}
		}
		fmt.Fprintf(w, "| %s | %d | %d |", wl.name, len(sel), correct)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %.4g |", median(values(sel, d.Name)))
		}
		fmt.Fprintln(w)
	}
}

// values collects one end-to-end metric over the correct runs.
func values(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Correct {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// writeMetricTables prints the end-to-end and per-layer tables.
func writeMetricTables(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit | better | bound |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %g%% |\n", d.Name, d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| per-layer metric | unit | better | layer | should move | on | no change on |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Layer, d.Moves, d.On, d.NoChangeOn)
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
