// Package core orchestrates the full reproduction: it wires the simulated
// web cluster (internal/websim), the TPC-W driver (internal/tpcw), the
// Active Harmony tuning layer (internal/harmony) and the reconfiguration
// algorithm (internal/reconfig) into the paper's experiments, one runner
// per table and figure.
package core

import (
	"webharmony/internal/cluster"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/monitor"
	"webharmony/internal/param"
	"webharmony/internal/simnet"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// LabConfig describes the experimental setup: cluster shape, client load
// and iteration window lengths (§III.A: 100 s warm-up, 1000 s measurement,
// 100 s cool-down per iteration).
type LabConfig struct {
	ProxyNodes int
	AppNodes   int
	DBNodes    int
	WorkLines  int

	Browsers  int
	ThinkMean float64
	Scale     int
	// Sessions drives browsers through the TPC-W session graph instead of
	// i.i.d. Table 1 draws (same steady-state mix).
	Sessions bool

	Warm    float64
	Measure float64
	Cool    float64

	Seed uint64

	// Workers bounds the worker pool the experiment runners use to fan
	// out independent units (tuning runs, matrix cells, candidate
	// evaluations, Figure 7 variants). 0 selects GOMAXPROCS; 1 forces
	// sequential execution. Results are bit-for-bit identical at every
	// worker count: every evaluation builds its own lab seeded from its
	// key, and every live run its own lab from this configuration's seed.
	Workers int

	// Telemetry, when non-nil, collects a tuner step trace and a per-tier
	// metrics timeseries from every lab built from this configuration.
	// Each lab, and each tuning run's step trace, registers a recorder
	// under (TelemetryReplicate, TelemetryUnit); the experiment runners
	// extend TelemetryUnit so every recorder gets a distinct name, and
	// core.Replicate sets TelemetryReplicate to the replicate index. The
	// fields are excluded from JSON exports and from the determinism
	// contract's inputs: an instrumented run measures exactly what a bare
	// run measures.
	Telemetry          *telemetry.Collector `json:"-"`
	TelemetryUnit      string               `json:"-"`
	TelemetryReplicate int                  `json:"-"`

	// SimProfile attaches the trace-driven event-loop profiler to every lab
	// built from this configuration (requires Telemetry: profiles ride the
	// recorder so the collector can merge them deterministically). Like
	// telemetry, profiling never changes what a run measures — labels ride
	// along with events without reordering anything or touching any RNG.
	SimProfile bool `json:"-"`

	// Spans attaches the per-request span layer to every lab built from
	// this configuration (requires Telemetry, like SimProfile): each page
	// records an exact queue-vs-service latency decomposition folded into
	// the lab's span sink, snapshotted once per iteration window for the
	// attribution report. SpanSampleEvery > 0 additionally dumps every
	// n-th page's full span tree. Spans, too, never change what a run
	// measures.
	Spans           bool `json:"-"`
	SpanSampleEvery int  `json:"-"`

	// EvalCache, when non-nil, memoizes hermetic evaluations (see
	// evaluate.go and DESIGN.md §10) under their canonical content-derived
	// keys, so exact repeats — re-proposed lattice points, repeated
	// baseline windows, the Figure 4 matrix's re-measured (config,
	// workload) pairs — skip re-simulation. Because an evaluation is a
	// pure function of its key, memoization never changes any output;
	// like Telemetry it is excluded from JSON exports and from the
	// determinism contract's inputs. Memoization is bypassed while
	// Telemetry is attached (a hit would skip per-evaluation recorder
	// registration and change the telemetry byte stream).
	EvalCache *evalcache.Cache `json:"-"`
}

// WithTelemetryUnit returns a copy of the configuration whose telemetry
// unit path is extended by seg, so every recorder a runner registers gets
// a distinct name (runners extend it further per lab). No-op when
// telemetry is disabled.
func (c LabConfig) WithTelemetryUnit(seg string) LabConfig {
	if c.Telemetry == nil {
		return c
	}
	if c.TelemetryUnit == "" {
		c.TelemetryUnit = seg
	} else {
		c.TelemetryUnit += "/" + seg
	}
	return c
}

// PaperLab returns the paper's timing on the 4-machine setup: 100/1000/100
// second windows. Simulated minutes per iteration; use for final runs.
func PaperLab() LabConfig {
	return LabConfig{
		ProxyNodes: 1, AppNodes: 1, DBNodes: 1,
		Browsers: 550, ThinkMean: 2, Scale: 10000,
		Warm: 100, Measure: 1000, Cool: 100,
		Seed: 1,
	}
}

// StandardLab returns the setup used by the benchmark harness: the paper's
// cluster and load with shortened (but still converged) windows.
func StandardLab() LabConfig {
	cfg := PaperLab()
	cfg.Warm, cfg.Measure, cfg.Cool = 20, 120, 10
	return cfg
}

// QuickLab returns a scaled-down setup for unit tests: a smaller store,
// fewer browsers with shorter think times (still saturating the cluster)
// and short windows.
func QuickLab() LabConfig {
	return LabConfig{
		ProxyNodes: 1, AppNodes: 1, DBNodes: 1,
		Browsers: 170, ThinkMean: 0.5, Scale: 1500,
		Warm: 5, Measure: 30, Cool: 3,
		Seed: 1,
	}
}

// TinyLab returns a deliberately undersized setup for byte-level golden
// and determinism tests: enough load for nonzero WIPS and minimal
// warm/measure/cool windows, so a full experiment runs in seconds.
// Numbers at this scale mean nothing — it exists so regression tests can
// pin exact output bytes cheaply (webtune -scale tiny).
func TinyLab() LabConfig {
	return LabConfig{
		ProxyNodes: 1, AppNodes: 1, DBNodes: 1,
		Browsers: 80, ThinkMean: 0.5, Scale: 800,
		Warm: 2, Measure: 8, Cool: 1,
		Seed: 1,
	}
}

// Lab is one instantiated experiment: a simulated cluster under TPC-W load
// with per-iteration measurement. Live runs (Figure 7, RunAdaptive) keep
// one lab for their whole history; every hermetic evaluation builds a
// fresh one and drops it after its window (evaluate.go).
type Lab struct {
	Cfg    LabConfig
	Sys    *websim.System
	Driver *tpcw.Driver
	Mon    *monitor.Monitor

	lastReadings []monitor.Reading
	iterations   int

	rec      *telemetry.Recorder
	sampler  *telemetry.Sampler
	spanSink *websim.SpanSink
}

// NewLab builds the simulated cluster and client population.
func NewLab(cfg LabConfig, w tpcw.Workload) *Lab {
	sys := websim.New(websim.Options{
		ProxyNodes: cfg.ProxyNodes,
		AppNodes:   cfg.AppNodes,
		DBNodes:    cfg.DBNodes,
		WorkLines:  cfg.WorkLines,
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
	})
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers:  cfg.Browsers,
		Workload:  w,
		ThinkMean: cfg.ThinkMean,
		Seed:      cfg.Seed ^ 0xeb,
		Sessions:  cfg.Sessions,
	})
	lab := &Lab{Cfg: cfg, Sys: sys, Driver: d, Mon: monitor.New(sys.Cluster)}
	if cfg.Telemetry != nil {
		lab.rec = cfg.Telemetry.Recorder(cfg.TelemetryReplicate, cfg.TelemetryUnit)
		// Two samples per iteration window, the cadence monitor.Timeline
		// uses for the Figure 7 utilization narrative.
		lab.sampler = telemetry.NewSampler(sys, lab.rec, (cfg.Warm+cfg.Measure+cfg.Cool)/2)
		lab.sampler.Start()
		if cfg.SimProfile {
			p := simnet.NewProfile()
			sys.Eng.SetProfile(p)
			lab.rec.AttachSimProfile(p)
		}
		if cfg.Spans {
			lab.spanSink = websim.NewSpanSink(cfg.SpanSampleEvery)
			sys.SetSpanSink(lab.spanSink)
			lab.rec.AttachSpans(lab.spanSink)
		}
	}
	return lab
}

// RecordEvent appends a trace event stamped with the current simulated
// time; no-op when telemetry is disabled.
func (l *Lab) RecordEvent(ev telemetry.Event) {
	if l.rec == nil {
		return
	}
	ev.T = l.Sys.Eng.Now()
	l.rec.Event(ev)
}

// layout returns the lab's current tier layout; node moves change it.
func (l *Lab) layout() tierLayout {
	ly := make(tierLayout, len(cluster.Tiers()))
	for _, t := range cluster.Tiers() {
		for _, n := range l.Sys.Cluster.TierNodes(t) {
			ly[t] = append(ly[t], n.ID())
		}
	}
	return ly
}

// Tiers returns the lab's current tier layout with every node's stored
// configuration, the view harmony.NewStrategy anchors its searches at.
func (l *Lab) Tiers() []harmony.TierSpec {
	cfgs := make(map[int]param.Config)
	for _, n := range l.Sys.Cluster.Nodes() {
		cfgs[n.ID()] = l.Sys.NodeConfig(n.ID())
	}
	return l.layout().specs(cfgs)
}

// MeasureIteration runs one iteration window; restart controls whether the
// servers are restarted first (a tuning iteration) or left running (a
// plain observation window).
func (l *Lab) MeasureIteration(restart bool) websim.Measurement {
	if restart {
		l.Sys.Restart()
	}
	if !l.Driver.Running() {
		l.Driver.Start()
	}
	eng := l.Sys.Eng
	eng.RunUntil(eng.Now() + l.Cfg.Warm)
	l.Mon.Begin()
	m := websim.Measure(l.Sys, l.Driver, 0, l.Cfg.Measure, 0)
	l.lastReadings = l.Mon.Collect()
	eng.RunUntil(eng.Now() + l.Cfg.Cool)
	l.iterations++
	if l.spanSink != nil {
		// Close the attribution window at the iteration boundary, so the
		// latency report can tie queue-wait shares to tuner steps and
		// reconfiguration moves.
		l.spanSink.Snapshot(l.iterations, eng.Now())
	}
	return m
}

// finishTelemetry ends the live phase of the lab's telemetry once the lab
// will simulate no more: the span sink keeps only its latency row
// summaries and the event-loop profile drops its interning index. Neither
// references the lab's engine, so after this the recorder holds just what
// the telemetry writers print and the finished lab can be collected.
func (l *Lab) finishTelemetry() {
	if l.spanSink != nil {
		l.spanSink.Freeze()
	}
	if p := l.rec.SimProfile(); p != nil {
		p.Freeze()
	}
}

// release returns the lab's recycled storage to its pools once the lab
// will simulate no more: the proxy stores, the catalog's size table, the
// response-time sample, the browsers and the free request records
// (DESIGN.md §10). A hermetic evaluation is the only caller, after
// finishTelemetry, and nothing reads the lab after it.
func (l *Lab) release() {
	l.Driver.Release()
	l.Sys.Release()
}

// LastReadings returns the per-node utilizations of the last iteration's
// measurement window.
func (l *Lab) LastReadings() []monitor.Reading { return l.lastReadings }

// MeasureConfig applies one configuration per tier (duplicated within the
// tier) and measures n hermetic iteration windows of the lab's workload,
// returning the WIPS series (measureConfig).
func (l *Lab) MeasureConfig(cfgs map[cluster.Tier]param.Config, n int) []float64 {
	return measureConfig(l.Cfg, l.Driver.Workload(), cfgs, n)
}

// DefaultConfigs returns every tier's default configuration.
func DefaultConfigs() map[cluster.Tier]param.Config {
	out := make(map[cluster.Tier]param.Config)
	for _, t := range cluster.Tiers() {
		out[t] = websim.SpaceFor(t).DefaultConfig()
	}
	return out
}
