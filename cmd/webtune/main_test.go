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
	tel := filepath.Join(t.TempDir(), "tel")
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
		// A negative -iters used to run zero tuning iterations and report
		// a 0 WIPS best and a -100% improvement with exit 0.
		{"negative-iters-sec3a", []string{"-scale", "tiny", "-iters", "-1", "sec3a"}, "-iters must be >= 0, got -1"},
		{"negative-iters-table4", []string{"-scale", "tiny", "-iters", "-1", "table4"}, "-iters must be >= 0, got -1"},
		{"negative-iters-figure4", []string{"-scale", "tiny", "-iters", "-1", "figure4"}, "-iters must be >= 0, got -1"},
		{"negative-span-sample", []string{"-telemetry", tel, "-span-sample", "-1", "-scale", "tiny", "table1"}, "-span-sample must be >= 0, got -1"},
		{"bad-workers-value", []string{"-workers", "x", "table1"}, "invalid value"},
		// A negative -workers used to fall back to GOMAXPROCS silently.
		{"negative-workers", []string{"-workers", "-3", "table1"}, "-workers must be >= 0, got -3"},
		// The parameter sweeps are retired: their experiment and both of
		// their flags are rejected like any other unknown input.
		{"bad-sweep-spec", []string{"-sweep", "cpus=1,2", "sweep"}, "flag provided but not defined: -sweep"},
		{"sweep-without-grid", []string{"sweep"}, `unknown experiment "sweep"`},
		{"tuned-sweep-without-grid", []string{"-tuned", "sweep"}, "flag provided but not defined: -tuned"},
		{"tuned-outside-sweep", []string{"-tuned", "table1"}, "flag provided but not defined: -tuned"},
		{"tuned-nonfinite-think", []string{"-tuned", "-sweep", "think=NaN", "sweep"}, "flag provided but not defined: -tuned"},
		{"guard-above-one", []string{"-guard", "1.5", "table1"}, "guard factor 1.5 is outside [0, 1)"},
		{"guard-one", []string{"-guard", "1", "table1"}, "guard factor 1 is outside [0, 1)"},
		{"guard-negative", []string{"-guard", "-0.2", "table1"}, "guard factor -0.2 is outside [0, 1)"},
		{"guard-nan", []string{"-guard", "NaN", "table1"}, "guard factor NaN is outside [0, 1)"},
		{"shift-nan", []string{"-shift", "NaN", "figure5"}, "shift factor NaN is not a finite value >= 0"},
		{"shift-inf", []string{"-shift", "+Inf", "figure5"}, "shift factor +Inf is not a finite value >= 0"},
		{"shift-negative", []string{"-shift", "-0.1", "figure5"}, "shift factor -0.1 is not a finite value >= 0"},
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
		"-replicates", "3", "-workers", "2", "-seed", "7", "table1")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "=== table1 ===") || !strings.Contains(stdout, "Browsing") {
		t.Errorf("stdout missing table1 output: %q", stdout)
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
