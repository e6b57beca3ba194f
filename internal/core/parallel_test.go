package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"webharmony/internal/harmony"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7, 16} {
		for _, n := range []int{0, 1, 3, 8, 100} {
			hits := make([]int32, n)
			ForEach(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: task %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForEachSequentialWithOneWorker(t *testing.T) {
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("workers=1 ran out of order: %v", order)
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	var completed int32
	defer func() {
		r := recover()
		if r != "boom 3" {
			t.Errorf("recovered %v, want \"boom 3\"", r)
		}
		// The other tasks must still have run to completion.
		if got := atomic.LoadInt32(&completed); got != 7 {
			t.Errorf("%d tasks completed, want 7", got)
		}
	}()
	ForEach(4, 8, func(i int) {
		if i == 3 {
			panic(fmt.Sprintf("boom %d", i))
		}
		atomic.AddInt32(&completed, 1)
	})
	t.Error("ForEach did not re-panic")
}

// parallelTestLab is a heavily scaled-down setup: the determinism tests
// compare byte-for-byte equality of two runs, which does not need
// converged tuning, only enough load for nonzero WIPS. It is TinyLab,
// the same setup webtune's golden-file tests run at.
func parallelTestLab() LabConfig {
	return TinyLab()
}

// exportJSON renders a result through the same exporter the CLI uses, so
// equality here is equality of the artifacts users see.
func exportJSON(t *testing.T, res any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunFigure4ParallelDeterminism asserts the seed-splitting contract of
// the parallel runner: the exported Figure 4 result is byte-identical
// whether the fan-out runs on one worker or four.
func TestRunFigure4ParallelDeterminism(t *testing.T) {
	got := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		cfg := parallelTestLab()
		cfg.Workers = workers
		got[workers] = exportJSON(t, RunFigure4(cfg, 4, 2, harmony.Options{Seed: 3}))
	}
	if !bytes.Equal(got[1], got[4]) {
		t.Errorf("Figure 4 export differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s",
			got[1], got[4])
	}
}

// TestRunTable4ParallelDeterminism is the same contract for the Table 4
// method-comparison fan-out.
func TestRunTable4ParallelDeterminism(t *testing.T) {
	got := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		cfg := parallelTestLab()
		cfg.Browsers = 200 // the 2/2/2 cluster serves more clients
		cfg.Workers = workers
		got[workers] = exportJSON(t, RunTable4(cfg, 4, harmony.Options{Seed: 5}))
	}
	if !bytes.Equal(got[1], got[4]) {
		t.Errorf("Table 4 export differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s",
			got[1], got[4])
	}
}

// TestRunFigure7VariantsMatchSequential asserts the fan-out over Figure 7
// variants returns exactly what one-at-a-time RunFigure7 calls produce.
func TestRunFigure7VariantsMatchSequential(t *testing.T) {
	cfg := parallelTestLab()
	cfg.Browsers = 300 // 7-node cluster
	cfg.Warm = 4
	fos := []Figure7Options{Figure7a(), Figure7b()}

	cfg.Workers = 4
	par := RunFigure7Variants(cfg, fos...)
	if len(par) != len(fos) {
		t.Fatalf("got %d results, want %d", len(par), len(fos))
	}
	for i, fo := range fos {
		seq := RunFigure7(cfg, fo)
		if got, want := exportJSON(t, par[i]), exportJSON(t, seq); !bytes.Equal(got, want) {
			t.Errorf("variant %d differs between parallel and sequential runs", i)
		}
	}
}
