package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// captureFigure5 runs the figure5 experiment with every output sink
// enabled — report, CSV/JSON exports, step trace, metrics timeseries and
// simprofile folded stacks — and returns one normalized document holding
// all of it, so a single string comparison covers every byte the
// experiment can produce.
func captureFigure5(t *testing.T, workers int, seed, shift string) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{
		"-workers", fmt.Sprint(workers),
		"-scale", "tiny", "-iters", "16",
		"-seed", seed, "-shift", shift,
		"-out", dir,
		"-trace", filepath.Join(dir, "trace.jsonl"),
		"-metrics", filepath.Join(dir, "metrics.csv"),
		"-simprofile", filepath.Join(dir, "prof.folded"),
		"figure5",
	}
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("webtune %s: exit code %d, stderr: %s", strings.Join(args, " "), code, stderr)
	}
	var doc strings.Builder
	doc.WriteString("=== stdout ===\n")
	doc.WriteString(timingRe.ReplaceAllString(stdout, "done in X.Xs"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "=== file: %s ===\n%s", name, data)
	}
	return doc.String()
}

// restartsRe extracts the shift-restart count from the figure5 report.
var restartsRe = regexp.MustCompile(`restarts triggered by shift detection: (\d+)`)

// TestFigure5EquivalentAcrossWorkers is the acceptance bar for the
// speculative Figure 5 runner at the CLI level: `webtune figure5` produces
// byte-identical output — WIPS report, exports, trace, metrics and
// simprofile — at -workers 1, 4 and 8. The seeds run at -shift 0.1, where
// shift detection restarts the search mid-batch, so the documents pin the
// restart/discard path: speculation past a restart is dropped (recorded
// as speculate-discard trace events) and re-peeked. The worker pool only
// changes how many labs evaluate speculative candidates concurrently,
// never what is committed. (figure5-noshift in TestGoldenReports pins the
// path where speculation is never discarded.)
//
// Each seed's document is additionally pinned against a checked-in
// golden, so the test guards against behavior drift over time, not just
// divergence between worker counts within one build. Regenerate (only
// when a behavior change is intended) with:
//
//	go test ./cmd/webtune/ -run TestFigure5EquivalentAcrossWorkers -update
func TestFigure5EquivalentAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation determinism matrix")
	}
	const shift = "0.1"
	for _, seed := range []string{"1", "2"} {
		t.Run("seed="+seed+"/shift="+shift, func(t *testing.T) {
			base := captureFigure5(t, 1, seed, shift)
			if !strings.Contains(base, "=== file: trace.jsonl ===") ||
				!strings.Contains(base, "=== file: metrics.csv ===") ||
				!strings.Contains(base, "=== file: prof.folded ===") {
				t.Fatalf("telemetry sinks missing from document:\n%.400s", base)
			}
			m := restartsRe.FindStringSubmatch(base)
			if m == nil || m[1] == "0" {
				t.Fatalf("seed %s: no shift restart reported (match %q); the discard path is not exercised", seed, m)
			}
			if strings.Count(base, `"speculate-discard"`) == 0 {
				t.Fatalf("seed %s: restarts fired but no speculate-discard event was traced", seed)
			}
			golden := filepath.Join("testdata", "figure5-restart-seed"+seed+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(base), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if base != string(want) {
				t.Errorf("output differs from %s (regenerate with -update if the change is intended)", golden)
			}
			for _, workers := range []int{4, 8} {
				if got := captureFigure5(t, workers, seed, shift); got != base {
					t.Errorf("output differs between -workers 1 and -workers %d (seed %s)", workers, seed)
				}
			}
		})
	}
}
