package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"time"

	"webharmony/internal/cluster"
	"webharmony/internal/core"
	"webharmony/internal/evalcache"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

func windowSize(sz sizes) string {
	return fmt.Sprintf("sequential Lab.EvalConfig windows at %s, mixes in Table 1 order, %d distinct configurations (σ=0.15 perturbations of the defaults)",
		labDesc(sz.WindowLab), sz.WindowPool)
}

// windowPaper is the window-paper workload: one hermetic evaluation per
// unit, every configuration distinct, so the memo cache only misses and
// all the work is the simulation kernel.
type windowPaper struct {
	sz     sizes
	lab    *core.Lab
	caches [2]*evalcache.Cache // per phase, so the traced phase misses too
	pool   []map[int]param.Config

	meas   [2][]websim.Measurement
	events []uint64 // simnet events of the leading windows, from the counting pass
}

func startWindowPaper(e env) (instance, error) {
	cfg := e.sz.WindowLab
	cfg.Seed = e.seed
	cfg.Workers = 1
	lab := core.NewLab(cfg, tpcw.Browsing)
	w := &windowPaper{sz: e.sz, lab: lab}
	src := rng.New(rng.TaskSeed(e.seed, 0x77696e))
	for i := 0; i < e.sz.WindowPool; i++ {
		w.pool = append(w.pool, perturbedNodes(lab, src))
	}
	// Warm-up: one untimed window of the defaults, outside the cache.
	lab.MeasureConfig(core.DefaultConfigs(), 1)
	return w, nil
}

// perturbedNodes draws one node→configuration assignment: every tier's
// default moved by a Gaussian step of σ=0.15 per normalized coordinate,
// redrawing coordinates that leave [0, 1].
func perturbedNodes(lab *core.Lab, src *rng.Source) map[int]param.Config {
	nodes := map[int]param.Config{}
	for _, t := range cluster.Tiers() {
		space := websim.SpaceFor(t)
		u := space.Normalize(space.DefaultConfig())
		for i := range u {
			v := -1.0
			for v < 0 || v > 1 {
				v = src.Normal(u[i], 0.15)
			}
			u[i] = v
		}
		cfg := space.Denormalize(u)
		for _, n := range lab.Sys.Cluster.TierNodes(t) {
			nodes[n.ID()] = cfg.Clone()
		}
	}
	return nodes
}

func (w *windowPaper) close() {}

func (w *windowPaper) phase(ph *phase, deadline time.Time) {
	w.caches[ph.index] = evalcache.New()
	w.lab.Cfg.EvalCache = w.caches[ph.index]
	defer func() { w.lab.Cfg.EvalCache = nil }()
	sequential(ph, deadline, digestWindows, len(w.pool), func(i int) error {
		sp := ph.tr.begin("core.EvalConfig", 0, uint64(i)+1)
		m := w.lab.EvalConfig(tpcw.Workloads()[i%3], w.pool[i], fmt.Sprintf("w%05d", i))
		ph.tr.end(sp)
		if err := validMeasurement(m); err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
		w.meas[ph.index] = append(w.meas[ph.index], m)
		return nil
	})
}

func validMeasurement(m websim.Measurement) error {
	for _, v := range []float64{m.WIPS, m.WIPSb, m.WIPSo, m.ErrorRate, m.RespMean, m.RespP50, m.RespP90, m.RespP99} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite measurement %+v", m)
		}
	}
	if m.WIPS <= 0 || m.ErrorRate < 0 || m.ErrorRate > 1 {
		return fmt.Errorf("WIPS %v, error rate %v", m.WIPS, m.ErrorRate)
	}
	return nil
}

func (w *windowPaper) check(c *checker, phases []*phase) {
	allMiss := true
	for i, ms := range w.meas {
		if n := uint64(len(ms)); n > 0 {
			st := w.caches[i].Stats()
			allMiss = allMiss && st.Hits == 0 && st.Misses == n && st.Lookups == n
		}
	}
	c.check("evalcache-all-miss", allMiss, "a window hit the cache")

	// The counting pass: re-simulate the leading windows outside the
	// cache with a telemetry collector and the event-loop profiler of
	// their own, which count the events. The evaluation key excludes
	// telemetry, so each must measure exactly what the timed window did.
	n := 1
	if len(phases) > 1 {
		n = w.sz.CountWindows
	}
	n = min(n, len(w.meas[0]))
	same := true
	w.events = nil
	for i := 0; i < n; i++ {
		col := telemetry.NewCollector()
		w.lab.Cfg.Telemetry, w.lab.Cfg.SimProfile = col, true
		m := w.lab.EvalConfig(tpcw.Workloads()[i%3], w.pool[i], fmt.Sprintf("count%05d", i))
		w.lab.Cfg.Telemetry, w.lab.Cfg.SimProfile = nil, false
		w.events = append(w.events, col.MergedSimProfile().Events())
		same = same && reflect.DeepEqual(m, w.meas[0][i])
	}
	c.check("instrumented-rerun-identical", same, "a window re-simulated with telemetry measured differently")

	if len(phases) > 1 {
		k := min(len(w.meas[0]), len(w.meas[1]))
		same := true
		for i := 0; i < k; i++ {
			same = same && reflect.DeepEqual(w.meas[0][i], w.meas[1][i])
		}
		c.check("traced-equals-untraced", same, "a traced window measured differently")
	}
}

func (w *windowPaper) layers(m map[string]float64, phases []*phase) {
	un := phases[0]
	m["window_ms_p50"] = 1000 * percentile(un.units, 50)
	m["window_ms_p95"] = 1000 * percentile(un.units, 95)
	m["core.cpu_s"] = un.cpu / float64(len(un.units))
	m["core.worker_busy_ratio"] = un.cpu / (un.elapsed * float64(w.sz.Workers))
	m["core.windows_simulated"] = 1
	m["core.cpu_ms_per_window"] = 1000 * un.cpu / float64(len(un.units))
	m["evalcache.lookups"] = 1

	// Ladder numbers: untraced host time over the counting pass's counts
	// of the same windows. Pages are counted over the measure interval only,
	// so they are scaled to the whole warm/measure/cool window.
	cfg := w.lab.Cfg
	scale := (cfg.Warm + cfg.Measure + cfg.Cool) / cfg.Measure
	k := min(len(w.events), len(un.units))
	var ns, events, pagesK float64
	for i := 0; i < k; i++ {
		ns += un.units[i] * 1e9
		events += float64(w.events[i])
		pagesK += float64(pagesOf(w.meas[0][i]))
	}
	m["simnet.ns_per_event"] = ns / events
	m["sim.events_per_window"] = events / float64(k)
	m["websim.ns_per_page"] = ns / (pagesK * scale)

	var pages, errs float64
	for _, ms := range w.meas[0] {
		pages += float64(pagesOf(ms))
		errs += float64(ms.Counters.Errors)
	}
	m["sim.pages_per_window"] = pages / float64(len(w.meas[0]))
	m["sim.page_error_ratio"] = errs / pages
}

// pagesOf counts the pages a window's measure interval completed or failed.
func pagesOf(m websim.Measurement) uint64 { return m.Counters.Total() + m.Counters.Errors }

// digestWindows is how many leading windows sim_digest covers, and so
// the fewest a phase runs: a run simulates as many windows as fit its
// time, but the digest of one seed must not depend on the machine.
const digestWindows = 16

func (w *windowPaper) digest() string {
	h := fnv.New64a()
	for _, ms := range w.meas[0][:min(digestWindows, len(w.meas[0]))] { // fewer only after a failure
		for _, v := range []float64{ms.WIPS, ms.WIPSb, ms.WIPSo, ms.ErrorRate, ms.RespMean, ms.RespP50, ms.RespP90, ms.RespP99} {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
