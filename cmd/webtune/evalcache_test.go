package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMemoByteEquality is the acceptance bar of the memoization work:
// for each hermetic experiment, output with the cache on must be
// byte-identical to output with the cache off, at worker counts 1, 4
// and 8. captureRun already normalizes the one non-deterministic byte
// sequence (wall-clock durations).
func TestMemoByteEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation equality test")
	}
	cases := []struct {
		name string
		args []string
	}{
		{"figure4", []string{"-scale", "tiny", "-iters", "6", "figure4"}},
		{"table4", []string{"-scale", "tiny", "-iters", "8", "table4"}},
		{"figure5", []string{"-scale", "tiny", "-iters", "16", "figure5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := captureRun(t, 1, append([]string{"-memo=false"}, tc.args...)...)
			for _, workers := range []int{1, 4, 8} {
				if got := captureRun(t, workers, tc.args...); got != ref {
					t.Errorf("memo on, workers=%d differs from memo off:\n--- memo on\n%s\n--- memo off\n%s",
						workers, got, ref)
				}
			}
		})
	}
}

// TestEvalStatsReport checks -evalstats prints the counter line, that
// the counters are deterministic across reruns, and that a run with
// -memo=false says so instead.
func TestEvalStatsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	args := []string{"-scale", "tiny", "-iters", "8", "-evalstats", "table4"}
	statsLine := func(stdout string) string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "evalcache ") {
				return line
			}
		}
		return ""
	}

	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	line := statsLine(stdout)
	if line == "" {
		t.Fatalf("no evalcache line in stdout:\n%s", stdout)
	}
	for _, field := range []string{"lookups=", "hits=", "misses=", "entries=", "bytes=", "hit_rate="} {
		if !strings.Contains(line, field) {
			t.Errorf("stats line %q missing %s", line, field)
		}
	}
	if strings.Contains(line, "hits=0 ") {
		t.Errorf("table4 produced no cache hits: %q", line)
	}

	_, again, _ := runCLI(t, args...)
	if statsLine(again) != line {
		t.Errorf("stats not deterministic:\n%q\n%q", statsLine(again), line)
	}

	code, stdout, stderr = runCLI(t, "-scale", "tiny", "-iters", "8", "-evalstats", "-memo=false", "table4")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "evalcache off") {
		t.Errorf("-memo=false -evalstats did not report the cache as off:\n%s", stdout)
	}
}

// TestEvalCachePersistRoundTrip checks -evalcache saves a snapshot, that
// a warm-started rerun simulates nothing new (misses=0, hit_rate=1) yet
// prints identical results, and that the snapshot bytes are stable.
func TestEvalCachePersistRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	args := []string{"-scale", "tiny", "-iters", "8", "-evalstats", "-evalcache", path, "table4"}

	code, cold, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("cold run: exit code = %d, stderr: %s", code, stderr)
	}
	snap1, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	code, warm, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("warm run: exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(warm, "misses=0") || !strings.Contains(warm, "hit_rate=1.0000") {
		t.Errorf("warm run simulated new evaluations:\n%s", warm)
	}
	normalize := func(s string) string { return timingRe.ReplaceAllString(s, "done in X.Xs") }
	strip := func(s string) string { // the stats line legitimately differs cold vs warm
		var keep []string
		for _, line := range strings.Split(normalize(s), "\n") {
			if !strings.HasPrefix(line, "evalcache ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(warm) != strip(cold) {
		t.Errorf("warm-started results differ:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}

	snap2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap1) != string(snap2) {
		t.Error("re-saved snapshot differs from the original")
	}

	if code, _, stderr := runCLI(t, "-scale", "tiny", "-evalcache", filepath.Join(path, "nope"), "table1"); code != 2 || !strings.Contains(stderr, "-evalcache") {
		t.Errorf("unreadable cache path: code=%d stderr=%q", code, stderr)
	}
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, "-scale", "tiny", "-evalcache", path, "table1"); code != 2 || !strings.Contains(stderr, "version") {
		t.Errorf("bad snapshot version: code=%d stderr=%q", code, stderr)
	}
}

// TestEvalStatsBypassedWithTelemetry pins the telemetry interaction: an
// instrumented run must say memoization was bypassed.
func TestEvalStatsBypassedWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	code, stdout, stderr := runCLI(t,
		"-scale", "tiny", "-iters", "8", "-evalstats", "-telemetry", t.TempDir(), "table4")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "bypassed while telemetry is attached") {
		t.Errorf("missing bypass notice:\n%s", stdout)
	}
	if !strings.Contains(stdout, "evalcache lookups=0") {
		t.Errorf("instrumented run consulted the cache:\n%s", stdout)
	}
}
