package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// captureTelemetry drives the CLI with -telemetry into a fresh directory
// and returns every stream file's contents by name, plus stdout.
func captureTelemetry(t *testing.T, workers int, args ...string) (streams map[string]string, stdout string) {
	t.Helper()
	dir := t.TempDir()
	full := append([]string{"-workers", fmt.Sprint(workers), "-telemetry", dir}, args...)
	code, stdout, stderr := runCLI(t, full...)
	if code != 0 {
		t.Fatalf("webtune %s: exit code %d, stderr: %s", strings.Join(full, " "), code, stderr)
	}
	streams = make(map[string]string, len(telemetryStreams))
	for _, st := range telemetryStreams {
		data, err := os.ReadFile(filepath.Join(dir, st.name))
		if err != nil {
			t.Fatal(err)
		}
		streams[st.name] = string(data)
	}
	return streams, stdout
}

// TestGoldenTelemetry locks the trace JSONL and metrics CSV of the tiny
// replicated figure4 run against golden files, and asserts both are
// byte-identical between -workers 1 and -workers 4 — the acceptance bar
// of the telemetry layer's determinism contract.
// Regenerate with: go test ./cmd/webtune/ -run TestGoldenTelemetry -update
func TestGoldenTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation golden test")
	}
	args := []string{"-scale", "tiny", "-iters", "4", "-replicates", "2", "figure4"}
	streams, _ := captureTelemetry(t, 1, args...)

	for _, g := range []struct{ name, got string }{
		{"figure4-trace.golden", streams["trace.jsonl"]},
		{"figure4-metrics.golden", streams["metrics.csv"]},
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

	streams4, _ := captureTelemetry(t, 4, args...)
	for _, name := range []string{"trace.jsonl", "metrics.csv"} {
		if streams4[name] != streams[name] {
			t.Errorf("%s differs between -workers 1 and -workers 4", name)
		}
	}
}

// sinkFailCase is one bad-sink CLI invocation: the run must exit 2 before
// any simulation, with stderr naming every string in want.
type sinkFailCase struct {
	name string
	args []string
	want []string
}

// blockedStreamCase blocks the named stream's file in a fresh -telemetry
// directory with a directory of the same name, so creating it fails.
func blockedStreamCase(t *testing.T, stream string) sinkFailCase {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, stream)
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return sinkFailCase{strings.TrimSuffix(stream, filepath.Ext(stream)),
		[]string{"-telemetry", dir, "table1"}, []string{"-telemetry", path}}
}

// runSinkFailCases runs each case as a subtest.
func runSinkFailCases(t *testing.T, cases []sinkFailCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Errorf("exit code = %d, want 2 (stderr: %s)", code, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr = %q, want it to name %q", stderr, want)
				}
			}
			if strings.Contains(stdout, "===") {
				t.Errorf("experiment ran despite the bad sink; stdout: %q", stdout)
			}
		})
	}
}

// spanStreams are the span layer's telemetry streams; TestSpanSinkFailFast
// covers them, TestTelemetrySinkFailFast every other stream.
var spanStreams = []string{"latency.csv", "spans.jsonl"}

// TestTelemetrySinkFailFast asserts an uncreatable output directory or
// stream file aborts the run before any simulation starts. Missing
// directories are created, so the bad directories run through a regular
// file; each stream case blocks one stream's file with a directory.
func TestTelemetrySinkFailFast(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []sinkFailCase{
		{"telemetry", []string{"-telemetry", filepath.Join(blocker, "dir"), "table1"}, []string{"-telemetry"}},
		{"out", []string{"-out", filepath.Join(blocker, "dir"), "table1"}, []string{"-out"}},
	}
	for _, st := range telemetryStreams {
		if !slices.Contains(spanStreams, st.name) {
			cases = append(cases, blockedStreamCase(t, st.name))
		}
	}
	runSinkFailCases(t, cases)
}
