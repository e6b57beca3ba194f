package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"webharmony/internal/harmony"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
)

// TestTelemetryZeroOverhead pins the tentpole's core invariant: an
// instrumented run measures exactly what a bare run measures. The sampler
// only reads simulation state and the trace observer fires outside the
// engine, so enabling telemetry must not change a single WIPS value.
func TestTelemetryZeroOverhead(t *testing.T) {
	cfg := TinyLab()
	opts := harmony.Options{Seed: 1}

	bare := TuneWorkload(cfg, tpcw.Browsing, 6, 4, opts)

	tcfg := cfg
	tcfg.Telemetry = telemetry.NewCollector()
	instrumented := TuneWorkload(tcfg, tpcw.Browsing, 6, 4, opts)

	if !reflect.DeepEqual(bare.Baseline, instrumented.Baseline) {
		t.Errorf("telemetry changed the baseline series:\nbare %v\nwith %v",
			bare.Baseline, instrumented.Baseline)
	}
	if !reflect.DeepEqual(bare.Tuning, instrumented.Tuning) {
		t.Errorf("telemetry changed the tuning series:\nbare %v\nwith %v",
			bare.Tuning, instrumented.Tuning)
	}
	if bare.BestWIPS != instrumented.BestWIPS {
		t.Errorf("telemetry changed BestWIPS: bare %v, with %v",
			bare.BestWIPS, instrumented.BestWIPS)
	}
	var trace bytes.Buffer
	if err := tcfg.Telemetry.WriteTrace(&trace); err != nil || trace.Len() == 0 {
		t.Errorf("instrumented run recorded no telemetry (write error %v)", err)
	}
}

// TestTuneWorkloadTraceContents checks the trace stream a tuning run
// emits: a restart from the session's anchored reset, then one step per
// tuning iteration with sim-time and evaluation counters advancing and a
// full parameter map attached.
func TestTuneWorkloadTraceContents(t *testing.T) {
	cfg := TinyLab()
	cfg.Telemetry = telemetry.NewCollector()
	const iters = 5
	TuneWorkload(cfg, tpcw.Browsing, iters, 2, harmony.Options{Seed: 1})

	events := decodeTrace(t, cfg.Telemetry)

	if len(events) < iters+1 {
		t.Fatalf("got %d events, want at least %d (reset + %d steps)", len(events), iters+1, iters)
	}
	var steps, restarts int
	lastT := -1.0
	for _, ev := range events {
		switch ev.Kind {
		case "step":
			steps++
			if ev.Config == nil {
				t.Fatalf("step event %+v has no config", ev)
			}
		case "restart":
			restarts++
		default:
			t.Fatalf("unexpected event kind %q", ev.Kind)
		}
		if ev.Unit != "tuning" {
			t.Fatalf("event unit = %q, want \"tuning\"", ev.Unit)
		}
		if ev.T < lastT {
			t.Fatalf("sim-time went backwards: %v after %v", ev.T, lastT)
		}
		lastT = ev.T
	}
	if steps != iters {
		t.Errorf("got %d step events, want %d", steps, iters)
	}
	if restarts < 1 {
		t.Error("expected at least one restart event (the anchored reset)")
	}
}

// TestMoveEventSimTime checks that RunAdaptive stamps executed moves with
// the simulated time and mirrors them into the trace stream.
func TestMoveEventSimTime(t *testing.T) {
	cfg := TinyLab()
	// A lopsided cluster under heavy load, so the reconfiguration check
	// fires within a short run.
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = 3, 1, 1
	cfg.Browsers = 240
	cfg.Telemetry = telemetry.NewCollector()
	lab := NewLab(cfg, tpcw.Browsing)
	res := RunAdaptive(lab, 8, AdaptiveOptions{
		Strategy:      harmony.StrategyDuplication,
		Tuner:         harmony.Options{Seed: 1},
		ReconfigEvery: 2,
		MaxMoves:      1,
	})
	if len(res.Moves) == 0 {
		t.Skip("no reconfiguration triggered at this scale")
	}
	mv := res.Moves[0]
	if mv.SimTime <= 0 {
		t.Errorf("MoveEvent.SimTime = %v, want > 0", mv.SimTime)
	}
	var moves int
	for _, ev := range decodeTrace(t, cfg.Telemetry) {
		if ev.Kind == "move" {
			moves++
			if ev.Iter != mv.Iteration {
				t.Errorf("move event iter = %d, want %d", ev.Iter, mv.Iteration)
			}
		}
	}
	if moves != len(res.Moves) {
		t.Errorf("trace has %d move events, result has %d", moves, len(res.Moves))
	}
}

// decodeTrace round-trips a collector's trace through WriteTrace and
// parses every JSON line back into an Event.
func decodeTrace(t *testing.T, c *telemetry.Collector) []telemetry.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []telemetry.Event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestHermeticRunnersRegisterNoIdleSpanSinks runs every hermetic runner
// with spans on and checks that each span sink it leaves in the collector
// folded at least one measurement window: the runners build no lab that
// never simulates, so the bottleneck rollup has no "0 windows" unit.
func TestHermeticRunnersRegisterNoIdleSpanSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	opts := harmony.Options{Seed: 1}
	runs := map[string]func(cfg LabConfig){
		"sec3a":   func(cfg LabConfig) { TuneWorkload(cfg, tpcw.Browsing, 3, 1, opts) },
		"figure4": func(cfg LabConfig) { RunFigure4(cfg, 3, 1, opts) },
		"table4":  func(cfg LabConfig) { RunTable4(cfg, 3, opts) },
		"figure5": func(cfg LabConfig) { RunFigure5(cfg, []tpcw.Workload{tpcw.Browsing, tpcw.Ordering}, 2, 2, opts) },
	}
	for name, run := range runs {
		cfg := TinyLab()
		cfg.Telemetry, cfg.Spans = telemetry.NewCollector(), true
		cfg = cfg.WithTelemetryUnit(name)
		run(cfg)
		var rollup bytes.Buffer
		if err := cfg.Telemetry.WriteLatencyRollup(&rollup); err != nil {
			t.Fatal(err)
		}
		units := 0
		for _, line := range strings.Split(strings.TrimSpace(rollup.String()), "\n") {
			units++
			if strings.Contains(line, " 0 windows") {
				t.Errorf("%s: idle span sink: %s", name, line)
			}
		}
		if units < 2 {
			t.Errorf("%s: rollup names %d units; spans were not recorded", name, units)
		}
	}
}
