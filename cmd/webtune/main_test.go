package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives the CLI in-process and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFlagAndArgumentErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"no-experiment", nil, "usage: webtune"},
		{"two-experiments", []string{"table1", "table4"}, "usage: webtune"},
		{"unknown-experiment", []string{"frobnicate"}, `unknown experiment "frobnicate"`},
		{"unknown-flag", []string{"-no-such-flag", "table1"}, "flag provided but not defined"},
		{"bad-scale", []string{"-scale", "huge", "table1"}, `unknown scale "huge"`},
		{"bad-replicates", []string{"-replicates", "0", "table4"}, "-replicates must be >= 1"},
		{"bad-workers-value", []string{"-workers", "x", "table1"}, "invalid value"},
		{"bad-sweep-spec", []string{"-sweep", "cpus=1,2", "sweep"}, `unknown axis "cpus"`},
		{"sweep-without-grid", []string{"sweep"}, "needs a grid"},
		{"tuned-sweep-without-grid", []string{"-tuned", "sweep"}, "needs a grid"},
		{"tuned-outside-sweep", []string{"-tuned", "table1"}, "-tuned only applies to the sweep experiment"},
		{"tuned-nonfinite-think", []string{"-tuned", "-sweep", "think=NaN", "sweep"}, "bad think value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Errorf("exit code = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", stderr, tc.want)
			}
		})
	}
}

// TestFlagsParse asserts the knob flags are accepted and reach the run:
// table1 needs no simulation, so this stays instant.
func TestFlagsParse(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-replicates", "3", "-workers", "2", "-seed", "7",
		"-sweep", "browsers=100,200", "table1")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "=== table1 ===") || !strings.Contains(stdout, "Browsing") {
		t.Errorf("stdout missing table1 output: %q", stdout)
	}
}

// TestSweepExperimentSmoke runs the sweep experiment end to end on a
// minimal grid and checks the long-form CSV lands in -out.
func TestSweepExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t,
		"-sweep", "browsers=60", "-iters", "25", "-workers", "2", "-out", dir, "sweep")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "browsers") || !strings.Contains(stdout, "mean WIPS") {
		t.Errorf("stdout missing sweep table: %q", stdout)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "sweep.csv"))
	if err != nil {
		t.Fatalf("sweep.csv not exported: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 2 || lines[0] != "browsers,replicate,wips" {
		t.Errorf("sweep.csv = %q, want a header plus one (combo, replicate) row", string(csv))
	}
	if _, err := os.Stat(filepath.Join(dir, "sweep.json")); err != nil {
		t.Errorf("sweep.json not exported: %v", err)
	}
}

// TestExportFailureExitsOne asserts an -out file that cannot be written
// fails the run: every failed path is named on stderr, the other exports
// are still written, and the exit code is 1.
func TestExportFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	blocked := []string{filepath.Join(dir, "figure7a.json"), filepath.Join(dir, "figure7a-utilization.csv")}
	for _, p := range blocked {
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := runCLI(t, "-scale", "tiny", "-iters", "2", "-out", dir, "figure7a")
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	for _, p := range blocked {
		if !strings.Contains(stderr, p) {
			t.Errorf("stderr = %q, want it to name %s", stderr, p)
		}
	}
	if !strings.Contains(stdout, "=== figure7a ===") {
		t.Errorf("figure7a did not run: %q", stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure7a.csv")); err != nil {
		t.Errorf("figure7a.csv not written after the JSON export failed: %v", err)
	}
}
