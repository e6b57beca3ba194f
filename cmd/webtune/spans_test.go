package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGoldenSpans locks the latency.csv and spans.jsonl streams of the tiny
// figure7a run against golden files, asserts both are byte-identical
// across -workers 1, 4 and 8 (the span layer's determinism contract), and
// checks the attribution report names the application tier — the
// pre-reconfiguration hot tier of Figure 7(a) — as the top queue-wait
// contributor.
// Regenerate with: go test ./cmd/webtune/ -run TestGoldenSpans -update
func TestGoldenSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation golden test")
	}
	args := []string{"-span-sample", "4999", "-scale", "tiny", "-iters", "4", "figure7a"}
	streams, stdout := captureTelemetry(t, 1, args...)
	latency := streams["latency.csv"]

	for _, g := range []struct{ name, got string }{
		{"figure7a-latency.golden", latency},
		{"figure7a-spans.golden", streams["spans.jsonl"]},
	} {
		golden := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if g.got != string(want) {
			t.Errorf("%s differs from golden (regenerate with -update if the change is intended)", g.name)
		}
	}

	// Figure 7(a) starts app-bound (4 proxy / 2 app / 1 db under the
	// ordering shift); the bottleneck rollup must say so.
	if !strings.Contains(stdout, "queue-wait app") {
		t.Errorf("bottleneck rollup does not rank app first:\n%s", stdout)
	}
	// The attribution section ties windows to iterations.
	if !strings.Contains(latency, "# attribution") {
		t.Error("latency output missing the attribution section")
	}

	for _, workers := range []int{4, 8} {
		sw, _ := captureTelemetry(t, workers, args...)
		for _, name := range []string{"latency.csv", "spans.jsonl"} {
			if sw[name] != streams[name] {
				t.Errorf("%s differs between -workers 1 and -workers %d", name, workers)
			}
		}
	}
}

// TestGoldenSpansFigure4 pins worker-count byte-equality on the fan-out
// heavy figure4 run too: every matrix cell is its own lab with its own
// sink, merged in (replicate, unit) order.
func TestGoldenSpansFigure4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation golden test")
	}
	args := []string{"-span-sample", "4999", "-scale", "tiny", "-iters", "4", "figure4"}
	streams, _ := captureTelemetry(t, 1, args...)
	if latency := streams["latency.csv"]; !strings.HasPrefix(latency, "replicate,unit,interaction,tier,kind,") {
		t.Fatalf("unexpected latency header: %q", strings.SplitN(latency, "\n", 2)[0])
	}
	s4, _ := captureTelemetry(t, 4, args...)
	for _, name := range []string{"latency.csv", "spans.jsonl"} {
		if s4[name] != streams[name] {
			t.Errorf("%s differs between -workers 1 and -workers 4", name)
		}
	}
}

// TestSpanSinkFailFast asserts an uncreatable latency.csv or spans.jsonl
// stream file aborts the run before any simulation starts.
func TestSpanSinkFailFast(t *testing.T) {
	var cases []sinkFailCase
	for _, st := range telemetryStreams {
		if slices.Contains(spanStreams, st.name) {
			cases = append(cases, blockedStreamCase(t, st.name))
		}
	}
	if len(cases) != len(spanStreams) {
		t.Fatalf("telemetry streams hold %d of the %d span streams %v", len(cases), len(spanStreams), spanStreams)
	}
	runSinkFailCases(t, cases)
}

// TestSpanFlagsShortSmoke is the short-mode companion of the golden
// tests: one tiny figure7a run with -telemetry, cheap enough for the
// -short coverage job, asserting every stream file materializes (the
// capture fails otherwise), the span streams have the expected schema and
// both rollups reach stdout.
func TestSpanFlagsShortSmoke(t *testing.T) {
	streams, stdout := captureTelemetry(t, 1, "-scale", "tiny", "-iters", "2", "figure7a")
	latency := streams["latency.csv"]
	if !strings.HasPrefix(latency, "replicate,unit,interaction,tier,kind,") {
		t.Errorf("latency.csv header wrong: %q", strings.SplitN(latency, "\n", 2)[0])
	}
	if !strings.Contains(latency, "# attribution") {
		t.Error("latency.csv missing attribution section")
	}
	if !strings.Contains(streams["spans.jsonl"], "\"spans\":") {
		t.Error("spans.jsonl has no span rows")
	}
	if !strings.Contains(stdout, "queue-wait") {
		t.Errorf("stdout missing latency rollup: %q", stdout)
	}
	if !strings.Contains(stdout, "simnet event-loop profile:") {
		t.Errorf("stdout missing profile rollup: %q", stdout)
	}
}
