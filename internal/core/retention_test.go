package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"weak"

	"webharmony/internal/simnet"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
)

// finishedUnit runs one instrumented window on a fresh lab, finishes its
// telemetry the way EvalConfig does, and returns a weak pointer to the
// lab's engine; the lab itself goes out of scope on return.
func finishedUnit(col *telemetry.Collector) weak.Pointer[simnet.Engine] {
	cfg := TinyLab()
	cfg.Telemetry, cfg.TelemetryUnit = col, "retained"
	cfg.SimProfile, cfg.Spans, cfg.SpanSampleEvery = true, true, 97
	lab := NewLab(cfg, tpcw.Shopping)
	lab.MeasureIteration(true)
	lab.finishTelemetry()
	return weak.Make(lab.Sys.Eng)
}

// TestFinishedUnitReleasesLab pins that a finished evaluation unit's
// telemetry does not keep its simulation alive: once the lab is dropped,
// its engine — and with it the cluster, caches, pooled records and event
// heap it reaches — is collectable while the collector is still in use,
// and the collector still writes the unit's latency rows.
func TestFinishedUnitReleasesLab(t *testing.T) {
	col := telemetry.NewCollector()
	eng := finishedUnit(col)
	runtime.GC()
	if eng.Value() != nil {
		t.Error("the collector keeps a finished unit's engine reachable")
	}
	var buf bytes.Buffer
	if err := col.WriteLatency(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0,retained,all,total,response,", "0,retained,home,total,response,"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("latency output lacks %q after the lab was collected", want)
		}
	}
	runtime.KeepAlive(col)
}
