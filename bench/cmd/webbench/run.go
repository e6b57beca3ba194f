package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"webharmony/internal/core"
)

// sizes fixes the work of every workload. The command line always uses
// defaultSizes; tests pass tiny ones.
type sizes struct {
	Workers   int // goroutine workers and connections: nproc
	SetupReps int // set-ups per run; setup_s is their median

	Fig4Lab   core.LabConfig
	Fig4Iters int
	Fig4Eval  int

	WindowLab    core.LabConfig
	WindowPool   int // distinct configurations generated in set-up
	CountWindows int // leading windows the traced run re-simulates to count events

	Rounds       int // Next/Report rounds per harmonyd session
	WarmSessions int // untimed sessions per connection in set-up
	Replays      int // sessions replayed in-process by the traced run
}

func defaultSizes() sizes {
	return sizes{
		Workers:   runtime.NumCPU(),
		SetupReps: 3,
		Fig4Lab:   core.QuickLab(), Fig4Iters: 30, Fig4Eval: 3,
		WindowLab: core.StandardLab(), WindowPool: 4096, CountWindows: 12,
		Rounds: 200, WarmSessions: 10, Replays: 10,
	}
}

// env is what a workload's set-up receives.
type env struct {
	seed    uint64
	sz      sizes
	scratch string // directory for files the workload writes
}

// workload is one named benchmark workload.
type workload struct {
	name, why string
	size      func(sizes) string
	start     func(env) (instance, error)
}

// instance is a set-up workload, ready to run timed phases.
type instance interface {
	// phase runs units of fixed work until deadline, at least one, and
	// records them in ph.
	phase(ph *phase, deadline time.Time)
	// check verifies the outputs of every phase run so far.
	check(c *checker, phases []*phase)
	// layers sets the workload's per-layer metrics from the phases.
	layers(m map[string]float64, phases []*phase)
	// digest summarizes the simulated or tuned results.
	digest() string
	close()
}

// phase is one timed pass over a workload: untraced, or traced with
// spans and a CPU profile.
type phase struct {
	index int     // 0 untraced, 1 traced
	tr    *tracer // nil when untraced

	units   []float64 // seconds per unit of fixed work
	ops     int       // ops attempted: runs, windows or requests
	failed  int
	err     error
	rtt     *usHist // request round trips (harmonyd)
	elapsed float64 // seconds

	cpu        float64 // process CPU seconds
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func (ph *phase) fail(err error) {
	ph.failed++
	if ph.err == nil {
		ph.err = err
	}
}

// sequential runs unit(0), unit(1), … until deadline. It runs at least
// least units, and at most limit when limit > 0. Each unit is one op; a
// panic or error is a failed op and ends the phase.
func sequential(ph *phase, deadline time.Time, least, limit int, unit func(i int) error) {
	for i := 0; i < least || (time.Now().Before(deadline) && (limit <= 0 || i < limit)); i++ {
		t0 := time.Now()
		err := safely(func() error { return unit(i) })
		ph.ops++
		if err != nil {
			ph.fail(err)
			return
		}
		ph.units = append(ph.units, time.Since(t0).Seconds())
	}
}

// safely runs f, reporting a panic as an error.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runPhase(inst instance, index int, tr *tracer, seconds float64) *phase {
	ph := &phase{index: index, tr: tr}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	inst.phase(ph, start.Add(time.Duration(seconds*float64(time.Second))))
	ph.elapsed = time.Since(start).Seconds()
	ph.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles = m1.NumGC - m0.NumGC
	ph.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return ph
}

// checker records correctness checks; any failure makes the run incorrect.
type checker struct {
	ran    []string
	failed []string
}

func (c *checker) check(name string, ok bool, format string, args ...any) {
	c.ran = append(c.ran, name)
	if !ok {
		c.failed = append(c.failed, name+": "+fmt.Sprintf(format, args...))
	}
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pct is a percentile with the number of samples it was taken over.
type pct struct {
	P50, P95, P99 float64
	N             int
}

func pctOf(xs []float64) pct {
	return pct{P50: percentile(xs, 50), P95: percentile(xs, 95), P99: percentile(xs, 99), N: len(xs)}
}

// result is everything one run of one workload reports.
type result struct {
	Header    header            `json:"header"`
	Workload  string            `json:"workload"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Checks    []string          `json:"checks"`
	Digest    string            `json:"sim_digest"`
	Metrics   map[string]metric `json:"metrics"`   // end-to-end, untraced phase
	Layers    map[string]metric `json:"per_layer"` // traced runs only
	// Percentiles of the untraced phase: unit times in seconds, and for
	// harmonyd request round trips in µs.
	Units pct       `json:"unit_s"`
	RTT   *pct      `json:"rtt_us,omitempty"`
	Setup []float64 `json:"setup_s_samples"`
}

// header identifies what a result was measured on and with which inputs.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	Size       string `json:"size"`
}

// execute sets the workload up SetupReps times, runs the untraced phase
// and, when traced, the traced phase under a CPU profile, then checks the
// outputs and assembles the result; an incorrect result carries no
// metrics. traceDir receives spans.jsonl and cpu.pprof of a traced run.
func execute(w *workload, e env, seconds float64, traced bool, traceDir string) *result {
	res := &result{
		Header:   newHeader(e.seed, w.size(e.sz)),
		Workload: w.name, Seconds: seconds, Trace: traced,
		Metrics: map[string]metric{},
	}
	var inst instance
	for r := 0; r < e.sz.SetupReps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		t0 := time.Now()
		err := safely(func() (err error) {
			inst, err = w.start(e)
			return err
		})
		res.Setup = append(res.Setup, time.Since(t0).Seconds())
		if err != nil {
			res.Attempted, res.Failed = 1, 1
			res.Errors = append(res.Errors, "set-up: "+err.Error())
			return res
		}
	}
	defer inst.close()

	phases := []*phase{runPhase(inst, 0, nil, seconds)}
	var samples []stackSample
	if traced {
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.Errors = append(res.Errors, "cpu profile: "+err.Error())
		}
		phases = append(phases, runPhase(inst, 1, tr, seconds))
		pprof.StopCPUProfile()
		var err error
		if samples, err = decodeProfile(prof.Bytes()); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
		if err := os.MkdirAll(traceDir, 0o755); err == nil {
			err = tr.write(filepath.Join(traceDir, "spans.jsonl"))
			if err == nil {
				err = os.WriteFile(filepath.Join(traceDir, "cpu.pprof"), prof.Bytes(), 0o644)
			}
			if err != nil {
				res.Errors = append(res.Errors, "trace: "+err.Error())
			}
		} else {
			res.Errors = append(res.Errors, "trace: "+err.Error())
		}
	}

	for _, ph := range phases {
		res.Attempted += ph.ops
		res.Failed += ph.failed
		if ph.err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("phase %d: %v", ph.index, ph.err))
		}
	}
	var c checker
	if res.Failed == 0 {
		if err := safely(func() error { inst.check(&c, phases); return nil }); err != nil {
			c.check("verification", false, "%v", err)
		}
	}
	res.Checks = c.ran
	res.Errors = append(res.Errors, c.failed...)
	res.Correct = len(res.Errors) == 0
	res.Digest = inst.digest()
	if !res.Correct {
		return res
	}

	un := phases[0]
	res.Units = pctOf(un.units)
	if un.rtt != nil {
		res.RTT = &pct{P50: un.rtt.quantile(50), P95: un.rtt.quantile(95), P99: un.rtt.quantile(99), N: un.rtt.n}
	}
	e2e := map[string]float64{
		"setup_s":     median(res.Setup),
		"wall_s":      median(un.units),
		"ops_per_s":   float64(un.ops) / un.elapsed,
		"rss_peak_mb": peakRSSMB(),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{Value: e2e[d.Name], Unit: d.Unit}
	}
	if traced {
		res.Layers = layerMetrics(inst, phases, samples)
	}
	finish(res)
	return res
}

// finish rejects non-finite metrics and strips the metrics of an
// incorrect run, which reports none.
func finish(res *result) {
	for _, ms := range []map[string]metric{res.Metrics, res.Layers} {
		for _, k := range sortedKeys(ms) {
			if v := ms[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				res.Errors = append(res.Errors, fmt.Sprintf("metric %s is %v", k, v))
				res.Correct = false
			}
		}
	}
	if !res.Correct {
		res.Metrics, res.Layers = map[string]metric{}, nil
		res.Units, res.RTT = pct{}, nil
	}
}

// layerMetrics assembles every per-layer metric: the workload's own
// counters, the profile shares, the Go runtime's counters per unit of the
// untraced phase, and the tracing overhead.
func layerMetrics(inst instance, phases []*phase, samples []stackSample) map[string]metric {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	cpu, acct, _ := profileShares(samples)
	for k, v := range cpu {
		m["cpu."+k] = v
	}
	for k, v := range acct {
		m["acct."+k] = v
	}
	un, tr := phases[0], phases[1]
	units := float64(len(un.units))
	m["runtime.alloc_mb"] = float64(un.allocBytes) / (1 << 20) / units
	m["runtime.gc_cycles"] = float64(un.gcCycles) / units
	m["runtime.gc_pause_ms"] = float64(un.gcPauseNs) / 1e6 / units
	m["trace.overhead_ratio"] = median(tr.units)/median(un.units) - 1
	inst.layers(m, phases)

	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

func newHeader(seed uint64, size string) header {
	return header{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Size:       size,
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
