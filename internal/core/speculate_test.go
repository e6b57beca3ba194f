package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"webharmony/internal/evalcache"
	"webharmony/internal/harmony"
	"webharmony/internal/telemetry"
	"webharmony/internal/tpcw"
)

// specLab returns the tiny scenario the speculation tests run on: small
// enough that a full multi-phase run takes well under a second, with
// shift detection aggressive enough that restarts fire mid-speculation.
func specLab(seed uint64, workers int) LabConfig {
	cfg := TinyLab()
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// histories flattens a strategy's per-session histories for comparison.
func histories(st *harmony.Strategy) [][]harmony.Record {
	var out [][]harmony.Record
	for _, sess := range st.Sessions() {
		out = append(out, sess.History())
	}
	return out
}

// TestFigure5SpeculativeMatchesSequential is the core determinism
// property: over randomized seeds, phase lengths and workload sequences,
// the speculative engine (deep lookahead, parallel workers) commits
// exactly the iteration sequence the sequential formulation (lookahead 1,
// one worker) produces — record for record in every session's history,
// including runs where shift restarts discard in-flight speculation.
func TestFigure5SpeculativeMatchesSequential(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	sawRestart := false
	for trial := 0; trial < 4; trial++ {
		seed := uint64(rnd.Intn(1000) + 1)
		phaseLen := 5 + rnd.Intn(6)
		phases := 2 + rnd.Intn(2)
		all := tpcw.Workloads()
		seq := []tpcw.Workload{all[rnd.Intn(len(all))], all[rnd.Intn(len(all))]}
		opts := harmony.Options{Seed: seed, ShiftFactor: 0.1, ShiftPatience: 2}

		seqRes, seqSt := runFigure5(specLab(seed, 1), seq, phaseLen, phases, 1, opts)
		parRes, parSt := runFigure5(specLab(seed, 3), seq, phaseLen, phases, lookahead, opts)

		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("trial %d (seed %d, phaseLen %d, seq %v): results diverged:\nsequential: %+v\nspeculative: %+v",
				trial, seed, phaseLen, seq, seqRes, parRes)
		}
		sh, ph := histories(seqSt), histories(parSt)
		if len(sh) != len(ph) {
			t.Fatalf("trial %d: session counts %d != %d", trial, len(sh), len(ph))
		}
		for i := range sh {
			if len(sh[i]) != len(ph[i]) {
				t.Fatalf("trial %d session %d: history lengths %d != %d", trial, i, len(sh[i]), len(ph[i]))
			}
			for j := range sh[i] {
				a, b := sh[i][j], ph[i][j]
				if a.Perf != b.Perf || !a.Config.Equal(b.Config) {
					t.Fatalf("trial %d session %d record %d: %+v != %+v", trial, i, j, a, b)
				}
			}
		}
		if seqRes.Restarts > 0 {
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatal("no trial triggered a shift restart; the property was not exercised on the discard path")
	}
}

// TestTuningRunnersLookaheadMatchesSequential extends the property above
// to the runners without shift restarts: TuneWorkload for every mix and
// every RunTable4 row commit at the driver's lookahead, at workers 1 and
// 3, exactly what they commit at lookahead 1 on one worker, and make the
// same evaluation-cache lookups and hits (a duplicate within a batch is a
// hit whether the batch runs in parallel or in sequence).
func TestTuningRunnersLookaheadMatchesSequential(t *testing.T) {
	opts := harmony.Options{Seed: 7}
	lab := func(workers int) LabConfig {
		cfg := specLab(7, workers)
		cfg.EvalCache = evalcache.New()
		return cfg
	}
	// The property is vacuous unless the tuners expose batches deeper
	// than one at the start of a run.
	for _, kind := range []harmony.StrategyKind{harmony.StrategyDefault, harmony.StrategyDuplication,
		harmony.StrategyPartitioning, harmony.StrategyHybrid} {
		cfg := lab(1)
		cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes, cfg.WorkLines = 2, 2, 2, 2
		st := harmony.NewStrategy(kind, NewLab(cfg, tpcw.Shopping), cfg.WorkLines, opts)
		if n := len(st.Lookahead(lookahead)); n < 2 {
			t.Fatalf("%v: initial lookahead %d; the batched path is not exercised", kind, n)
		}
	}
	for _, w := range tpcw.Workloads() {
		seqCfg := lab(1)
		want := tuneWorkload(seqCfg, w, 30, 2, 1, opts)
		for _, workers := range []int{1, 3} {
			cfg := lab(workers)
			got := tuneWorkload(cfg, w, 30, 2, lookahead, opts)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("TuneWorkload %v, workers %d: lookahead %d diverged from lookahead 1:\n%+v\n%+v",
					w, workers, lookahead, want, got)
			}
			if a, b := seqCfg.EvalCache.Stats(), cfg.EvalCache.Stats(); a != b {
				t.Fatalf("TuneWorkload %v, workers %d: cache stats %+v, want %+v", w, workers, b, a)
			}
		}
	}
	seqCfg := lab(1)
	want := runTable4(seqCfg, 24, 1, opts)
	for _, workers := range []int{1, 3} {
		cfg := lab(workers)
		got := runTable4(cfg, 24, lookahead, opts)
		for i := range want.Rows {
			if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
				t.Fatalf("RunTable4 row %q, workers %d: lookahead %d diverged from lookahead 1:\n%+v\n%+v",
					want.Rows[i].Method, workers, lookahead, want.Rows[i], got.Rows[i])
			}
		}
		if a, b := seqCfg.EvalCache.Stats(), cfg.EvalCache.Stats(); a != b {
			t.Fatalf("RunTable4, workers %d: cache stats %+v, want %+v", workers, b, a)
		}
	}
}

// figure5Telemetry runs a telemetry-instrumented Figure 5 at the given
// worker count and returns the merged trace, metrics and simprofile
// bytes plus the result.
func figure5Telemetry(t *testing.T, workers int, seed uint64, shift float64) (*Figure5Result, string, string, string) {
	t.Helper()
	col := telemetry.NewCollector()
	cfg := specLab(seed, workers)
	cfg.Telemetry = col
	cfg.TelemetryUnit = "figure5"
	cfg.SimProfile = true
	seq := []tpcw.Workload{tpcw.Browsing, tpcw.Ordering}
	res := RunFigure5(cfg, seq, 6, 3, harmony.Options{Seed: seed, ShiftFactor: shift, ShiftPatience: 2})
	var trace, metrics, profile bytes.Buffer
	if err := col.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteSimProfile(&profile); err != nil {
		t.Fatal(err)
	}
	return res, trace.String(), metrics.String(), profile.String()
}

// TestFigure5TelemetryDeterministicAcrossWorkers pins the byte-equality
// contract at the collector level: traces, metrics and simprofile folded
// stacks from workers 1, 4 and 8 are identical, with and without shift
// detection. (The CLI-level golden test covers the same through webtune.)
func TestFigure5TelemetryDeterministicAcrossWorkers(t *testing.T) {
	for _, shift := range []float64{0, 0.1} {
		res1, trace1, metrics1, prof1 := figure5Telemetry(t, 1, 2, shift)
		if trace1 == "" || metrics1 == "" {
			t.Fatalf("shift %v: empty telemetry (trace %d bytes, metrics %d bytes)", shift, len(trace1), len(metrics1))
		}
		for _, workers := range []int{4, 8} {
			resN, traceN, metricsN, profN := figure5Telemetry(t, workers, 2, shift)
			if !reflect.DeepEqual(res1, resN) {
				t.Fatalf("shift %v: results differ at workers %d:\n%+v\n%+v", shift, workers, res1, resN)
			}
			if trace1 != traceN {
				t.Fatalf("shift %v: trace bytes differ at workers %d", shift, workers)
			}
			if metrics1 != metricsN {
				t.Fatalf("shift %v: metrics bytes differ at workers %d", shift, workers)
			}
			if prof1 != profN {
				t.Fatalf("shift %v: simprofile bytes differ at workers %d", shift, workers)
			}
		}
	}
}

// TestFigure5SpeculationStress drives the hermetic fan-out as hard as
// the tiny scenario allows — more workers than candidates, shift
// detection firing constantly so speculative batches are repeatedly
// discarded mid-commit — and checks the result still matches the
// sequential run. Run under -race this doubles as the concurrency test
// for EvalConfig's per-evaluation labs and collector registration.
func TestFigure5SpeculationStress(t *testing.T) {
	seq := []tpcw.Workload{tpcw.Browsing, tpcw.Shopping, tpcw.Ordering}
	opts := harmony.Options{Seed: 11, ShiftFactor: 0.05, ShiftPatience: 1}
	want, _ := runFigure5(specLab(11, 1), seq, 5, 3, 1, opts)
	if want.Restarts == 0 {
		t.Fatal("stress scenario triggered no restarts; tighten ShiftFactor")
	}
	for run := 0; run < 3; run++ {
		got, _ := runFigure5(specLab(11, 8), seq, 5, 3, lookahead, opts)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d: stressed speculative result diverged:\n%+v\n%+v", run, want, got)
		}
	}
}

// TestRecoveryIters pins the Figure5Result.Recovery semantics, including
// the edge cases the sequential implementation got wrong: a recovery on
// the phase's last iteration is reported as such (not conflated with
// "never recovered"), a switch past a truncated series yields
// RecoveryNone, and a truncated final phase is measured over the
// iterations that exist.
func TestRecoveryIters(t *testing.T) {
	cases := []struct {
		name     string
		wips     []float64
		switches []int
		phaseLen int
		want     []int
	}{
		{
			name:     "immediate recovery",
			wips:     []float64{50, 50, 100, 100, 100, 100},
			switches: []int{2},
			phaseLen: 4,
			want:     []int{1},
		},
		{
			name: "recovery only on the last iteration",
			// steady = mean(30, 100) = 65; band = 58.5; first v >= 58.5
			// is the 4th and final iteration (the old code returned
			// len(phase) for "never", making this case ambiguous).
			wips:     []float64{200, 200, 10, 20, 30, 100},
			switches: []int{2},
			phaseLen: 4,
			want:     []int{4},
		},
		{
			name:     "switch past a truncated series",
			wips:     []float64{50, 50},
			switches: []int{2},
			phaseLen: 4,
			want:     []int{RecoveryNone},
		},
		{
			name: "truncated final phase",
			// Last phase has only 3 of 10 iterations: steady covers its
			// actual tail, not out-of-range indices.
			wips:     []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 90, 100},
			switches: []int{10},
			phaseLen: 10,
			want:     []int{2},
		},
		{
			name:     "NaN steady level never recovers",
			wips:     []float64{50, 50, math.NaN(), math.NaN()},
			switches: []int{2},
			phaseLen: 2,
			want:     []int{RecoveryNone},
		},
	}
	for _, tc := range cases {
		if got := recoveryIters(tc.wips, tc.switches, tc.phaseLen); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: recoveryIters = %v, want %v", tc.name, got, tc.want)
		}
	}
}
