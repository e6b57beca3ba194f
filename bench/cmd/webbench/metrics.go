package main

import (
	"math"
	"sort"
	"time"
)

// metricDef describes one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json fixes for them; per-layer metrics name
// the end-to-end metric they should move, the workload where they should
// show it, and the workload where a change to their layer should show
// nothing.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64

	Layer, Moves, On, NoChangeOn string
}

// endToEnd are the metrics a user of each workload sees, measured with
// tracing off. Every workload reports every one of them, so they are
// defined over the workload's own unit and op (see README.md).
//
// Each bound is more than three times the widest spread between seeds
// measured on a shared 2-core machine (an interquartile range of 6% of the
// median over ten seeds). The timings get the largest bound allowed: the
// allocation-heavy figure4-instrumented ran 31% slower in one of two
// calibration sets taken minutes apart (README.md, Calibration).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// cpuPackages are the packages whose self time the traced run reports as
// cpu.<name>; every other package counts as cpu.other.
var cpuPackages = []string{
	"simnet", "websim", "proxy", "appserver", "db", "webobj", "cluster", "tpcw", "rng", "math",
	"core", "evalcache", "telemetry", "stats", "harmony", "simplex", "param", "hproto",
	"json", "net", "runtime",
}

// acctClasses are the disjoint classes of the traced run's accounting.
var acctClasses = []string{"build", "simulate", "cache", "tune", "telemetry", "gc", "other"}

const (
	sim      = "window-paper"
	fig      = "figure4"
	figInst  = "figure4-instrumented"
	rpc      = "harmonyd"
	allSim   = "figure4, figure4-instrumented, window-paper"
	noneWork = "-"
)

// perLayer are the traced run's metrics. Each is reported for every
// workload, as 0 where its layer does no work.
var perLayer = func() []metricDef {
	cpu := func(pkg, layer, moves, on, not string) metricDef {
		return metricDef{Name: "cpu." + pkg, Unit: "%", Better: "lower", Layer: layer, Moves: moves, On: on, NoChangeOn: not}
	}
	defs := []metricDef{
		cpu("simnet", "simnet", "wall_s", sim+", "+fig, rpc),
		{Name: "simnet.ns_per_event", Unit: "ns", Better: "lower", Layer: "simnet", Moves: "wall_s", On: sim, NoChangeOn: rpc},
		{Name: "sim.events_per_window", Unit: "count", Better: "lower", Layer: "simnet", Moves: "wall_s", On: sim + ", " + figInst, NoChangeOn: rpc},
	}
	for _, p := range []string{"websim", "proxy", "appserver", "db", "webobj", "cluster", "tpcw", "rng", "math"} {
		defs = append(defs, cpu(p, "page path", "wall_s", sim, rpc))
	}
	defs = append(defs,
		metricDef{Name: "websim.ns_per_page", Unit: "ns", Better: "lower", Layer: "page path", Moves: "wall_s", On: sim, NoChangeOn: rpc},
		metricDef{Name: "sim.pages_per_window", Unit: "count", Better: "higher", Layer: "page path", Moves: "wall_s", On: sim, NoChangeOn: rpc},
		metricDef{Name: "sim.page_error_ratio", Unit: "ratio", Better: "lower", Layer: "page path", Moves: "wall_s", On: sim, NoChangeOn: rpc},
		metricDef{Name: "window_ms_p50", Unit: "ms", Better: "lower", Layer: "page path", Moves: "wall_s", On: sim, NoChangeOn: rpc},
		metricDef{Name: "window_ms_p95", Unit: "ms", Better: "lower", Layer: "page path", Moves: "wall_s", On: sim, NoChangeOn: rpc},

		metricDef{Name: "acct.build", Unit: "%", Better: "lower", Layer: "core", Moves: "wall_s", On: fig, NoChangeOn: rpc},
		metricDef{Name: "acct.simulate", Unit: "%", Better: "lower", Layer: "core", Moves: "wall_s", On: fig, NoChangeOn: rpc},
		metricDef{Name: "core.cpu_s", Unit: "s", Better: "lower", Layer: "core", Moves: "wall_s", On: fig, NoChangeOn: sim + " (sequential)"},
		metricDef{Name: "core.worker_busy_ratio", Unit: "ratio", Better: "higher", Layer: "core", Moves: "wall_s", On: fig, NoChangeOn: sim + " (sequential)"},
		metricDef{Name: "core.windows_simulated", Unit: "count", Better: "lower", Layer: "core", Moves: "wall_s", On: fig, NoChangeOn: sim + " (sequential)"},
		metricDef{Name: "core.cpu_ms_per_window", Unit: "ms", Better: "lower", Layer: "core", Moves: "wall_s", On: fig, NoChangeOn: rpc},
		cpu("core", "core", "wall_s", fig, sim+" (sequential)"),

		metricDef{Name: "evalcache.lookups", Unit: "count", Better: "lower", Layer: "evalcache", Moves: "wall_s", On: fig, NoChangeOn: sim + ", " + figInst},
		metricDef{Name: "evalcache.hits", Unit: "count", Better: "higher", Layer: "evalcache", Moves: "wall_s", On: fig, NoChangeOn: sim + ", " + figInst},
		metricDef{Name: "evalcache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "evalcache", Moves: "wall_s", On: fig, NoChangeOn: sim + ", " + figInst},
		metricDef{Name: "acct.cache", Unit: "%", Better: "lower", Layer: "evalcache", Moves: "wall_s", On: fig, NoChangeOn: sim + ", " + figInst},
		cpu("evalcache", "evalcache", "wall_s", fig, sim+", "+figInst),

		metricDef{Name: "telemetry.write_s", Unit: "s", Better: "lower", Layer: "telemetry", Moves: "wall_s", On: figInst, NoChangeOn: fig},
		metricDef{Name: "telemetry.out_mb", Unit: "MB", Better: "lower", Layer: "telemetry", Moves: "rss_peak_mb", On: figInst, NoChangeOn: fig},
		metricDef{Name: "acct.telemetry", Unit: "%", Better: "lower", Layer: "telemetry", Moves: "wall_s", On: figInst, NoChangeOn: fig},
		cpu("telemetry", "telemetry", "wall_s", figInst, fig),
		cpu("stats", "telemetry", "wall_s", figInst, fig),

		metricDef{Name: "harmony.ask_tell_us_p50", Unit: "us", Better: "lower", Layer: "harmony", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: fig},
		metricDef{Name: "acct.tune", Unit: "%", Better: "lower", Layer: "harmony", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: fig},
		cpu("harmony", "harmony", "wall_s, ops_per_s", rpc, fig),
		cpu("simplex", "harmony", "wall_s, ops_per_s", rpc, fig),
		cpu("param", "harmony", "wall_s, ops_per_s", rpc, fig),

		metricDef{Name: "rtt_us_p50", Unit: "us", Better: "lower", Layer: "hproto", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: allSim},
		metricDef{Name: "rtt_us_p99", Unit: "us", Better: "lower", Layer: "hproto", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: allSim},
		metricDef{Name: "hproto.register_rtt_us_p50", Unit: "us", Better: "lower", Layer: "hproto", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: allSim},
		metricDef{Name: "hproto.next_rtt_us_p50", Unit: "us", Better: "lower", Layer: "hproto", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: allSim},
		metricDef{Name: "hproto.report_rtt_us_p50", Unit: "us", Better: "lower", Layer: "hproto", Moves: "wall_s, ops_per_s", On: rpc, NoChangeOn: allSim},
		metricDef{Name: "hproto.frames_per_session", Unit: "count", Better: "lower", Layer: "hproto", Moves: "ops_per_s", On: rpc, NoChangeOn: allSim},
		cpu("hproto", "hproto", "wall_s, ops_per_s", rpc, allSim),
		cpu("json", "hproto", "wall_s, ops_per_s", rpc, allSim),
		cpu("net", "hproto", "wall_s, ops_per_s", rpc, allSim),

		metricDef{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Layer: "Go runtime", Moves: "rss_peak_mb, wall_s", On: figInst + ", " + rpc, NoChangeOn: noneWork},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "Go runtime", Moves: "rss_peak_mb, wall_s", On: figInst + ", " + rpc, NoChangeOn: noneWork},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "Go runtime", Moves: "wall_s", On: figInst + ", " + rpc, NoChangeOn: noneWork},
		metricDef{Name: "acct.gc", Unit: "%", Better: "lower", Layer: "Go runtime", Moves: "wall_s", On: figInst + ", " + rpc, NoChangeOn: noneWork},
		cpu("runtime", "Go runtime", "wall_s", figInst+", "+rpc, noneWork),

		metricDef{Name: "cpu.other", Unit: "%", Better: "lower", Layer: "everything else", Moves: "wall_s", On: noneWork, NoChangeOn: noneWork},
		metricDef{Name: "acct.other", Unit: "%", Better: "lower", Layer: "everything else", Moves: "wall_s", On: noneWork, NoChangeOn: noneWork},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "benchmark tracing", Moves: noneWork, On: noneWork, NoChangeOn: noneWork},
	)
	return defs
}()

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the middle value, or the mean of the two middle values, as
// Python's statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"), which
// is what the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// usHist is a preallocated latency histogram with 1 µs buckets up to
// maxUS; slower samples are kept exactly. Quantiles take the nearest-rank
// bucket and place the sample evenly within it, so a reading moves
// continuously with the distribution rather than in whole microseconds.
type usHist struct {
	counts []uint32
	over   []float64 // samples of maxUS µs or more, in µs
	n      int
}

// histRangeUS bounds the bucketed range: RPC round trips are tens of µs.
const histRangeUS = 100_000

func newUSHist(maxUS int) *usHist { return &usHist{counts: make([]uint32, maxUS)} }

func (h *usHist) observe(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	h.n++
	if b := int(us); b < len(h.counts) {
		h.counts[b]++
		return
	}
	h.over = append(h.over, us)
}

func (h *usHist) merge(o *usHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
}

// quantile returns the p-th percentile (0 < p <= 100) in µs; NaN if empty.
func (h *usHist) quantile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r := rank(h.n, p)
	seen := 0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+int(c) >= r {
			k := r - seen // the k-th of c samples in [b, b+1)
			return float64(b) + (float64(k)-0.5)/float64(c)
		}
		seen += int(c)
	}
	over := append([]float64(nil), h.over...)
	sort.Float64s(over)
	return over[r-seen-1]
}
