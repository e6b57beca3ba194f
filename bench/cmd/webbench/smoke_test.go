package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webharmony/internal/core"
)

// tinySizes shrink every workload so the whole smoke test takes seconds.
func tinySizes() sizes {
	return sizes{
		Workers: 2, SetupReps: 2,
		Fig4Lab: core.TinyLab(), Fig4Iters: 4, Fig4Eval: 2,
		WindowLab: core.TinyLab(), WindowPool: 64, CountWindows: 2,
		Rounds: 20, WarmSessions: 1, Replays: 2,
	}
}

var wantChecks = map[string][]string{
	"figure4":              {"deterministic", "evalcache-repeatable", "evalcache-hits"},
	"figure4-instrumented": {"deterministic", "evalcache-bypassed", "matches-bare-run"},
	"window-paper":         {"evalcache-all-miss", "instrumented-rerun-identical", "traced-equals-untraced"},
	"harmonyd":             {"configs-feasible", "server-counters", "in-process-replay", "traced-equals-untraced"},
}

// lastLine parses the result line a run ends with.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result line keys %v", got)
	}
	return m
}

func metricNames(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var ms map[string]metric
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	return sortedKeys(ms)
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			e := env{seed: 3, sz: tinySizes(), scratch: dir}

			plain := execute(w, e, 0.05, false, "")
			if !plain.Correct {
				t.Fatalf("untraced run failed: %v", plain.Errors)
			}
			var out bytes.Buffer
			printResult(&out, plain)
			line := lastLine(t, out.String())
			if got, want := metricNames(t, line["metrics"]), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for _, d := range endToEnd {
				if v := plain.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}

			traceDir := filepath.Join(dir, "trace")
			res := execute(w, e, 0.05, true, traceDir)
			if !res.Correct {
				t.Fatalf("traced run failed: %v", res.Errors)
			}
			if !reflect.DeepEqual(res.Checks, wantChecks[w.name]) {
				t.Errorf("checks ran %v, want %v", res.Checks, wantChecks[w.name])
			}
			if res.Digest == "" || res.Digest != plain.Digest {
				t.Errorf("sim_digest %q traced, %q untraced; same seed must give the same results", res.Digest, plain.Digest)
			}
			out.Reset()
			printResult(&out, res)
			line = lastLine(t, out.String())
			if got, want := metricNames(t, line["metrics"]), names(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			var acct float64
			for _, c := range acctClasses {
				acct += res.Layers["acct."+c].Value
			}
			if acct != 0 && math.Abs(acct-100) > 1e-6 {
				t.Errorf("acct shares sum to %g%%", acct)
			}
			for _, f := range []string{"spans.jsonl", "cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(traceDir, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s: %v", f, err)
				}
			}
		})
	}
}

func TestTableSpaceHas23Parameters(t *testing.T) {
	space, err := tableSpace()
	if err != nil || space.Len() != 23 {
		t.Fatalf("Table 3 space: %v parameters (%v)", space.Len(), err)
	}
}

func TestIncorrectRunReportsNoMetrics(t *testing.T) {
	res := &result{
		Workload: "figure4", Correct: true, Attempted: 3,
		Metrics: map[string]metric{"wall_s": {Value: math.NaN(), Unit: "s"}},
	}
	finish(res)
	var out bytes.Buffer
	printResult(&out, res)
	line := lastLine(t, out.String())
	if string(line["correct"]) != "false" || string(line["metrics"]) != "{}" {
		t.Errorf("incorrect run printed %s", out.String())
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	set := func(wall ...float64) string {
		var s resultSet
		for _, v := range wall {
			s.Runs = append(s.Runs, &result{Workload: "harmonyd", Correct: true, Metrics: map[string]metric{
				"setup_s": {Value: 0.1}, "wall_s": {Value: v}, "ops_per_s": {Value: 1 / v}, "rss_peak_mb": {Value: 20},
			}})
		}
		path := filepath.Join(dir, fmt.Sprintf("set%d.json", len(wall)))
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := set(1.00, 1.01, 0.99), set(1.30, 1.31, 1.29, 1.30)
	var out, errs bytes.Buffer
	if code := compareFiles(a, b, "../../../BENCHMARK.json", &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	for _, want := range []string{"| harmonyd | wall_s |", "| worse |", "| harmonyd | rss_peak_mb |", "| within bound |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
