package core

import (
	"bytes"
	"testing"

	"webharmony/internal/harmony"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// TestRunFigure4ReplicatedDeterminism extends the Figure 4 determinism
// contract to the replicated runner: JSON and CSV, including the
// across-replicate mean/σ/CI cells, are byte-identical at workers=1 and
// workers=4.
func TestRunFigure4ReplicatedDeterminism(t *testing.T) {
	got := map[int][]byte{}
	var res *Figure4Replicated
	for _, workers := range []int{1, 4} {
		cfg := parallelTestLab()
		cfg.Workers = workers
		res = RunFigure4Replicated(cfg, 3, 1, 2, harmony.Options{Seed: 3})
		var buf bytes.Buffer
		if err := WriteFigure4ReplicatedCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		got[workers] = append(exportJSON(t, res), buf.Bytes()...)
	}
	if !bytes.Equal(got[1], got[4]) {
		t.Errorf("replicated Figure 4 export differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s",
			got[1], got[4])
	}
	if res.Replicates != 2 {
		t.Fatalf("Replicates = %d, want 2", res.Replicates)
	}
	for _, w := range tpcw.Workloads() {
		if res.Default[w].N != 2 || res.Matrix[w][w].N != 2 || res.Improvement[w].N != 2 {
			t.Errorf("workload %v summaries have N = %d/%d/%d, want 2 each",
				w, res.Default[w].N, res.Matrix[w][w].N, res.Improvement[w].N)
		}
	}
}

// TestRunFigure4ReplicatedMatchesDirectRuns asserts each replicate is the
// plain RunFigure4 under the derived seeds, and the summaries are the
// stats of those runs — the replicated runner adds aggregation, never new
// randomness.
func TestRunFigure4ReplicatedMatchesDirectRuns(t *testing.T) {
	cfg := parallelTestLab()
	cfg.Workers = 2
	opts := harmony.Options{Seed: 3}
	rep := RunFigure4Replicated(cfg, 3, 1, 2, opts)

	vals := make([]float64, 2)
	for r := 0; r < 2; r++ {
		rcfg := cfg
		rcfg.Seed = ReplicateSeed(cfg.Seed, r)
		ropts := opts
		ropts.Seed = ReplicateSeed(opts.Seed, r)
		direct := RunFigure4(rcfg, 3, 1, ropts)
		vals[r] = direct.Matrix[tpcw.Shopping][tpcw.Ordering]
	}
	if want := stats.Summarize(vals); rep.Matrix[tpcw.Shopping][tpcw.Ordering] != want {
		t.Errorf("Matrix[shopping][ordering] = %+v, want the direct runs' summary %+v",
			rep.Matrix[tpcw.Shopping][tpcw.Ordering], want)
	}
}

// TestRunFigure7ReplicatedDeterminism pins the replicated reconfiguration
// runner: byte-identical JSON and CSV at workers=1 and workers=4, with
// the worker pool deliberately wider than the replicate count so the
// fan-out is exercised under -race (the CI race job covers this package).
func TestRunFigure7ReplicatedDeterminism(t *testing.T) {
	fo := Figure7a()
	fo.Total = 6
	fo.SwitchAt = 1
	fo.CheckAt = 2
	got := map[int][]byte{}
	var res *Figure7Replicated
	for _, workers := range []int{1, 4} {
		cfg := parallelTestLab()
		cfg.Browsers = 300 // 7-node cluster
		cfg.Warm = 4
		cfg.Workers = workers
		res = RunFigure7Replicated(cfg, fo, 3)
		var buf bytes.Buffer
		if err := WriteFigure7ReplicatedCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		got[workers] = append(exportJSON(t, res), buf.Bytes()...)
	}
	if !bytes.Equal(got[1], got[4]) {
		t.Errorf("replicated Figure 7 export differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s",
			got[1], got[4])
	}

	if len(res.WIPS) != fo.Total || len(res.Decisions) != 3 {
		t.Fatalf("got %d iteration summaries / %d decisions, want %d / 3",
			len(res.WIPS), len(res.Decisions), fo.Total)
	}
	for i, s := range res.WIPS {
		if s.N != 3 || s.Mean <= 0 {
			t.Errorf("iteration %d summary %+v, want N=3 and positive mean", i, s)
		}
	}

	// Replicate r must be the plain RunFigure7 under the derived seed,
	// and the iteration summaries the stats of those direct runs.
	cfg := parallelTestLab()
	cfg.Browsers = 300
	cfg.Warm = 4
	cfg.Workers = 2
	directs := make([]*Figure7Result, 2)
	for r := range directs {
		rcfg := cfg
		rcfg.Seed = ReplicateSeed(cfg.Seed, r)
		directs[r] = RunFigure7(rcfg, fo)
	}
	check := RunFigure7Replicated(cfg, fo, 2)
	for r, direct := range directs {
		moved := ""
		if direct.Moved {
			moved = direct.Decision.String()
		}
		if check.Decisions[r] != moved {
			t.Errorf("replicate %d decision = %q, want the direct run's %q", r, check.Decisions[r], moved)
		}
	}
	for i := range check.WIPS {
		want := stats.Summarize([]float64{directs[0].WIPS[i], directs[1].WIPS[i]})
		if check.WIPS[i] != want {
			t.Errorf("WIPS[%d] = %+v, want the direct runs' summary %+v", i, check.WIPS[i], want)
		}
	}
}
