package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"webharmony/internal/cluster"
	"webharmony/internal/core"
	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
)

func figure4Size(sz sizes) string {
	return fmt.Sprintf("RunFigure4 at %s, %d iterations, %d eval windows, %d workers",
		labDesc(sz.Fig4Lab), sz.Fig4Iters, sz.Fig4Eval, sz.Workers)
}

// figure4Run is the figure4 workload, bare or instrumented: each unit is
// one RunFigure4 with a fresh evaluation cache, so every unit simulates
// exactly what the first did.
type figure4Run struct {
	cfg          core.LabConfig
	sz           sizes
	opts         harmony.Options
	instrumented bool
	dir          string // telemetry streams (instrumented)

	digests [2][]string
	stats   []evalcache.Stats // per unit of the untraced phase
	writeS  []float64         // telemetry write time per unit (untraced phase)
	outB    []int64           // telemetry bytes per unit (untraced phase)
	events  uint64            // simnet events of one traced unit (instrumented)
	windows uint64            // evaluation windows per run, from the bare reference
}

func startFigure4(e env, instrumented bool) (instance, error) {
	cfg := e.sz.Fig4Lab
	cfg.Seed = e.seed
	cfg.Workers = e.sz.Workers
	f := &figure4Run{cfg: cfg, sz: e.sz, opts: harmony.Options{Seed: e.seed}, instrumented: instrumented}
	if instrumented {
		dir, err := os.MkdirTemp(e.scratch, "figure4-telemetry-")
		if err != nil {
			return nil, err
		}
		f.dir = dir
	}
	// Warm-up: one hermetic window of the default configuration.
	core.NewLab(cfg, tpcw.Shopping).MeasureConfig(core.DefaultConfigs(), 1)
	return f, nil
}

func (f *figure4Run) close() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

func (f *figure4Run) phase(ph *phase, deadline time.Time) {
	sequential(ph, deadline, 1, 0, func(i int) error {
		root := ph.tr.begin("unit", 0, uint64(i)+1)
		defer ph.tr.end(root)
		c := f.cfg
		cache := evalcache.New()
		c.EvalCache = cache
		var col *telemetry.Collector
		if f.instrumented {
			col = telemetry.NewCollector()
			c.Telemetry = col
			c.SimProfile, c.Spans, c.SpanSampleEvery = true, true, 997
		}
		sp := ph.tr.begin("core.RunFigure4", root.ID, root.Trace)
		res := core.RunFigure4(c.WithTelemetryUnit("figure4"), f.sz.Fig4Iters, f.sz.Fig4Eval, f.opts)
		ph.tr.end(sp)
		d, err := digestFigure4(res)
		if err != nil {
			return err
		}
		f.digests[ph.index] = append(f.digests[ph.index], d)
		if col != nil {
			t0 := time.Now()
			n, err := f.writeTelemetry(ph.tr, root, col)
			if err != nil {
				return err
			}
			if ph.tr == nil {
				f.writeS = append(f.writeS, time.Since(t0).Seconds())
				f.outB = append(f.outB, n)
			} else if f.events == 0 {
				f.events = col.MergedSimProfile().Events()
			}
		}
		if ph.tr == nil {
			f.stats = append(f.stats, cache.Stats())
		}
		return nil
	})
}

// writeTelemetry writes the five streams webtune -trace -metrics
// -simprofile -latency -spans writes, and returns the bytes written.
func (f *figure4Run) writeTelemetry(tr *tracer, root span, col *telemetry.Collector) (int64, error) {
	streams := []struct {
		name, file string
		write      func(io.Writer) error
	}{
		{"telemetry.WriteTrace", "trace.jsonl", col.WriteTrace},
		{"telemetry.WriteMetrics", "metrics.csv", col.WriteMetrics},
		{"telemetry.WriteSimProfile", "simprofile.folded", col.WriteSimProfile},
		{"telemetry.WriteLatency", "latency.csv", col.WriteLatency},
		{"telemetry.WriteSpans", "spans.jsonl", col.WriteSpans},
	}
	var total int64
	for _, s := range streams {
		sp := tr.begin(s.name, root.ID, root.Trace)
		n, err := writeFile(filepath.Join(f.dir, s.file), s.write)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		total += n
	}
	return total, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeFile(path string, write func(io.Writer) error) (int64, error) {
	fh, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: fh}
	err = write(cw)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return cw.n, err
}

func (f *figure4Run) check(c *checker, phases []*phase) {
	var all []string
	for _, d := range f.digests {
		all = append(all, d...)
	}
	same := true
	for _, d := range all {
		same = same && d == all[0]
	}
	c.check("deterministic", same, "unit digests differ: %v", all)
	if f.instrumented {
		c.check("evalcache-bypassed", f.stats[0].Lookups == 0,
			"instrumented run looked up the cache %d times", f.stats[0].Lookups)
		// The reference: the same run bare, memo on. An instrumented run
		// must measure exactly what a bare run measures.
		bare := f.cfg
		cache := evalcache.New()
		bare.EvalCache = cache
		d, err := digestFigure4(core.RunFigure4(bare.WithTelemetryUnit("figure4"), f.sz.Fig4Iters, f.sz.Fig4Eval, f.opts))
		f.windows = cache.Stats().Lookups
		c.check("matches-bare-run", err == nil && d == all[0], "instrumented digest %s, bare %s (%v)", all[0], d, err)
		return
	}
	st := f.stats[0]
	repeat := true
	for _, s := range f.stats {
		repeat = repeat && s == st
	}
	c.check("evalcache-repeatable", repeat, "cache counters differ between units: %v", f.stats)
	c.check("evalcache-hits", st.Hits > 0 && st.Hits+st.Misses == st.Lookups,
		"lookups %d hits %d misses %d", st.Lookups, st.Hits, st.Misses)
	f.windows = st.Misses
}

func (f *figure4Run) layers(m map[string]float64, phases []*phase) {
	un := phases[0]
	units := float64(len(un.units))
	cpuPerUnit := un.cpu / units
	m["core.cpu_s"] = cpuPerUnit
	m["core.worker_busy_ratio"] = un.cpu / (un.elapsed * float64(f.sz.Workers))
	m["core.windows_simulated"] = float64(f.windows)
	m["core.cpu_ms_per_window"] = 1000 * cpuPerUnit / float64(f.windows)
	if f.instrumented {
		m["telemetry.write_s"] = mean(f.writeS)
		var b float64
		for _, n := range f.outB {
			b += float64(n)
		}
		m["telemetry.out_mb"] = b / units / (1 << 20)
		m["sim.events_per_window"] = float64(f.events) / float64(f.windows)
		return
	}
	st := f.stats[0]
	m["evalcache.lookups"] = float64(st.Lookups)
	m["evalcache.hits"] = float64(st.Hits)
	m["evalcache.hit_ratio"] = st.HitRate()
}

func (f *figure4Run) digest() string {
	if len(f.digests[0]) == 0 {
		return ""
	}
	return f.digests[0][0]
}

// digestFigure4 hashes the float bits of a Figure 4 result: the matrix,
// defaults, improvements, every tuning and baseline series and the best
// configurations. A non-finite number is an error.
func digestFigure4(r *core.Figure4Result) (string, error) {
	h := fnv.New64a()
	var bad error
	put := func(v float64) {
		if bad == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			bad = fmt.Errorf("non-finite result %v", v)
		}
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	for _, w := range tpcw.Workloads() {
		for _, on := range tpcw.Workloads() {
			put(r.Matrix[w][on])
		}
		put(r.Default[w])
		put(r.Improvement[w])
		run := r.Runs[w]
		for _, v := range append(append([]float64(nil), run.Baseline...), run.Tuning...) {
			put(v)
		}
		put(run.BestWIPS)
		for _, t := range cluster.Tiers() {
			binary.Write(h, binary.LittleEndian, []int64(r.Best[w][t]))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), bad
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// labDesc describes a lab's size for the run header.
func labDesc(c core.LabConfig) string {
	return fmt.Sprintf("%d/%d/%d nodes, %d browsers, scale %d, %g/%g/%g s windows",
		c.ProxyNodes, c.AppNodes, c.DBNodes, c.Browsers, c.Scale, c.Warm, c.Measure, c.Cool)
}
