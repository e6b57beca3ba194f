package telemetry

import (
	"reflect"
	"testing"

	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// loadedSystem builds a small 1/1/1 cluster under TPC-W load, started.
func loadedSystem(t *testing.T) *websim.System {
	t.Helper()
	sys := websim.New(websim.Options{
		ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 800, Seed: 1,
	})
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 60, Workload: tpcw.Browsing, ThinkMean: 0.5, Seed: 7,
	})
	d.Start()
	return sys
}

func TestSamplerRecordsPerTierSamples(t *testing.T) {
	sys := loadedSystem(t)
	rec := NewCollector().Recorder(0, "test")
	s := NewSampler(sys, rec, 5)
	s.Start()
	sys.Eng.RunUntil(21)

	samples := rec.samples
	// 4 sampling points (t=5,10,15,20) x 3 tiers.
	if len(samples) != 12 {
		t.Fatalf("got %d samples, want 12", len(samples))
	}
	tiers := map[string]bool{}
	var busy float64
	for _, smp := range samples {
		tiers[smp.Tier] = true
		if smp.Nodes != 1 {
			t.Fatalf("sample on tier %s reports %d nodes, want 1", smp.Tier, smp.Nodes)
		}
		if smp.CPU < 0 || smp.CPU > 1 {
			t.Fatalf("CPU utilization %v out of [0,1]", smp.CPU)
		}
		busy += smp.CPU
	}
	if !tiers["proxy"] || !tiers["app"] || !tiers["db"] {
		t.Fatalf("missing tiers in %v", tiers)
	}
	if busy == 0 {
		t.Fatal("a loaded cluster should show nonzero CPU utilization")
	}
}

func TestSamplerDeterministic(t *testing.T) {
	runOnce := func() []Sample {
		sys := loadedSystem(t)
		rec := NewCollector().Recorder(0, "test")
		NewSampler(sys, rec, 5).Start()
		sys.Eng.RunUntil(30)
		return rec.samples
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different samples")
	}
}

func TestSamplerRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interval <= 0 should panic")
		}
	}()
	NewSampler(loadedSystem(t), nil, 0)
}
