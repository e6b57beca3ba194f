package core

import (
	"strings"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/harmony"
	"webharmony/internal/tpcw"
)

// TestLabTiersAndMeasureIteration checks the live lab's two roles: it
// describes its layout and stored configurations to a strategy, and it
// measures one iteration window in place.
func TestLabTiersAndMeasureIteration(t *testing.T) {
	lab := NewLab(QuickLab(), tpcw.Shopping)
	tiers := lab.Tiers()
	if len(tiers) != 3 {
		t.Fatalf("tiers = %d", len(tiers))
	}
	if tiers[0].Name != "proxy" || len(tiers[0].Nodes) != 1 {
		t.Fatalf("tier spec = %+v", tiers[0])
	}
	for _, spec := range tiers {
		for i, n := range spec.Nodes {
			if !spec.Configs[i].Equal(lab.Sys.NodeConfig(n)) {
				t.Fatalf("%s node %d: spec config %v, stored %v", spec.Name, n, spec.Configs[i], lab.Sys.NodeConfig(n))
			}
		}
	}
	m := lab.MeasureIteration(true)
	if m.WIPS <= 0 {
		t.Fatal("no throughput from MeasureIteration")
	}
	if m.LineWIPS != nil {
		t.Fatal("line WIPS without work lines")
	}
	if lab.iterations != 1 {
		t.Fatal("iteration count wrong")
	}
	if len(lab.LastReadings()) != 3 {
		t.Fatal("readings missing")
	}
}

func TestMeasureConfigSeries(t *testing.T) {
	lab := NewLab(QuickLab(), tpcw.Browsing)
	series := lab.MeasureConfig(DefaultConfigs(), 3)
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	for _, v := range series {
		if v <= 0 {
			t.Fatalf("zero-throughput iteration in %v", series)
		}
	}
}

func TestTuneWorkloadImproves(t *testing.T) {
	res := TuneWorkload(QuickLab(), tpcw.Ordering, 50, 6, harmony.Options{Seed: 2})
	if len(res.Tuning) != 50 || len(res.Baseline) != 6 {
		t.Fatal("series lengths wrong")
	}
	if res.BestWIPS <= 0 {
		t.Fatal("no best WIPS")
	}
	if res.AvgImprovement < -0.05 {
		t.Fatalf("tuning made things much worse: %v", res.AvgImprovement)
	}
	if res.FracBetter < 0.3 {
		t.Fatalf("only %.0f%% of tuned iterations beat default", 100*res.FracBetter)
	}
	for _, tier := range cluster.Tiers() {
		if _, ok := res.BestConfigs[tier]; !ok {
			t.Fatalf("missing best config for tier %v", tier)
		}
	}
	t.Logf("%v: baseline=%.1f best=%.1f avgImp=%.1f%% fracBetter=%.2f",
		res.Workload, res.Baseline[0], res.BestWIPS, 100*res.AvgImprovement, res.FracBetter)
}

func TestRunFigure5SwitchesWorkloads(t *testing.T) {
	cfg := QuickLab()
	res := RunFigure5(cfg, []tpcw.Workload{tpcw.Browsing, tpcw.Ordering}, 10, 3,
		harmony.Options{Seed: 3, ShiftFactor: 0.25})
	if len(res.WIPS) != 30 {
		t.Fatalf("WIPS series = %d", len(res.WIPS))
	}
	if len(res.Switches) != 2 || res.Switches[0] != 10 || res.Switches[1] != 20 {
		t.Fatalf("switches = %v", res.Switches)
	}
	if res.Workload[5] != tpcw.Browsing || res.Workload[15] != tpcw.Ordering || res.Workload[25] != tpcw.Browsing {
		t.Fatal("workload labels wrong")
	}
	if len(res.Recovery) != 2 {
		t.Fatalf("recovery = %v", res.Recovery)
	}
	for _, r := range res.Recovery {
		if r < 1 || r > 10 {
			t.Fatalf("recovery out of range: %v", res.Recovery)
		}
	}
	t.Logf("recovery=%v restarts=%d", res.Recovery, res.Restarts)
}

func TestRunFigure5PanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunFigure5(QuickLab(), nil, 10, 2, harmony.Options{})
}

// TestEmptyBaselinePanics checks that the runners refuse a baseline of no
// windows, whose mean would read 0 and every improvement against it 0%.
func TestEmptyBaselinePanics(t *testing.T) {
	for name, run := range map[string]func(){
		"TuneWorkload": func() { TuneWorkload(TinyLab(), tpcw.Shopping, 4, 0, harmony.Options{}) },
		"RunFigure4":   func() { RunFigure4(TinyLab(), 4, 0, harmony.Options{}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) {
					t.Errorf("%s with no baseline windows: panic %q, want one naming %s", name, msg, name)
				}
			}()
			run()
		}()
	}
}

func TestDefaultConfigsComplete(t *testing.T) {
	dc := DefaultConfigs()
	if len(dc) != 3 {
		t.Fatal("missing tiers")
	}
	if len(dc[cluster.TierDB]) != 9 {
		t.Fatal("db default wrong arity")
	}
}

func TestLabConfigs(t *testing.T) {
	p := PaperLab()
	if p.Warm != 100 || p.Measure != 1000 || p.Cool != 100 {
		t.Fatal("PaperLab windows must match §III.A")
	}
	s := StandardLab()
	if s.Measure >= p.Measure {
		t.Fatal("StandardLab should be shorter")
	}
	q := QuickLab()
	if q.Browsers >= s.Browsers {
		t.Fatal("QuickLab should be smaller")
	}
}
