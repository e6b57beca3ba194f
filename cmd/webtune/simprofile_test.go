package main

import (
	"strings"
	"testing"
)

// TestSimProfileDeterministicAcrossWorkers is the profiler's acceptance
// bar: -telemetry must emit byte-identical folded stacks at -workers 1
// and -workers 4, because everything in the profile derives from the
// deterministic event sequence and the collector merges per-unit profiles
// in a fixed order.
func TestSimProfileDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation determinism test")
	}
	args := []string{"-scale", "tiny", "-iters", "4", "-replicates", "2", "figure4"}
	streams1, out1 := captureTelemetry(t, 1, args...)
	streams4, _ := captureTelemetry(t, 4, args...)
	folded1 := streams1["simprofile.folded"]
	if folded1 != streams4["simprofile.folded"] {
		t.Error("folded stacks differ between -workers 1 and -workers 4")
	}
	if folded1 == "" {
		t.Fatal("folded profile is empty")
	}
	// The folded file is flamegraph.pl/speedscope input: every line is
	// "frames weight" with semicolon-separated frames and an integer weight.
	for i, line := range strings.Split(strings.TrimRight(folded1, "\n"), "\n") {
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Fatalf("folded line %d has %d space-separated fields, want 2: %q", i+1, len(fields), line)
		}
		if fields[0] == "" {
			t.Fatalf("folded line %d has an empty stack: %q", i+1, line)
		}
	}
	// Sanity: the rollup reaches stdout and attributes the simulation's
	// dominant components.
	if !strings.Contains(out1, "simnet event-loop profile:") {
		t.Error("stdout lacks the profile rollup")
	}
	for _, frame := range []string{"browser/think", "page/", "tier/"} {
		if !strings.Contains(folded1, frame) {
			t.Errorf("profile lacks expected frame %q", frame)
		}
	}
}
