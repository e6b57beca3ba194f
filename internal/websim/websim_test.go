package websim

import (
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/param"
	"webharmony/internal/proxy"
	"webharmony/internal/tpcw"
)

func smallSystem(workLines int) *System {
	return New(Options{
		ProxyNodes: 2, AppNodes: 2, DBNodes: 2,
		Scale: 500, Seed: 3, WorkLines: workLines,
	})
}

func driveFor(sys *System, w tpcw.Workload, seconds float64) tpcw.Counters {
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 60, Workload: w, ThinkMean: 1, Seed: 5,
	})
	d.Start()
	sys.Eng.RunUntil(sys.Eng.Now() + seconds)
	return d.Counters()
}

func TestSystemServesTraffic(t *testing.T) {
	sys := smallSystem(0)
	c := driveFor(sys, tpcw.Shopping, 60)
	if c.Total() == 0 {
		t.Fatal("no pages completed")
	}
	st, ok := sys.ProxyStats(0)
	if !ok {
		t.Fatal("proxy stats missing")
	}
	if st.HitsMem+st.HitsDisk == 0 {
		t.Fatal("cache never hit during 60s of traffic")
	}
}

func TestSetNodeConfigValidates(t *testing.T) {
	sys := smallSystem(0)
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible config accepted")
		}
	}()
	sys.SetNodeConfig(0, param.Config{1, 2}) // wrong length for proxy space
}

func TestSetNodeConfigUnknownNodePanics(t *testing.T) {
	sys := smallSystem(0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node accepted")
		}
	}()
	sys.SetNodeConfig(99, proxy.Space().DefaultConfig())
}

func TestRestartAppliesConfigAndClearsCaches(t *testing.T) {
	sys := smallSystem(0)
	driveFor(sys, tpcw.Browsing, 30)
	before, _ := sys.ProxyStats(0)
	if before.HitsMem+before.HitsDisk == 0 {
		t.Fatal("cache never filled")
	}
	sp := proxy.Space()
	cfg := sp.DefaultConfig()
	cfg[sp.IndexOf(proxy.ParamCacheMem)] = 64
	sys.SetTierConfig(cluster.TierProxy, cfg)
	sys.Restart()
	after, _ := sys.ProxyStats(0)
	if after != (proxy.Stats{}) {
		t.Fatal("Restart did not clear cache stats")
	}
	if got := proxy.DecodeConfig(sys.NodeConfig(0)); got.CacheMemMB != 64 {
		t.Fatalf("config not applied: cache_mem = %d", got.CacheMemMB)
	}
}

func TestMoveNodeChangesRole(t *testing.T) {
	sys := smallSystem(0)
	if _, ok := sys.ProxyStats(1); !ok {
		t.Fatal("node 1 should start as proxy")
	}
	sys.MoveNode(1, cluster.TierApp, nil)
	if _, ok := sys.ProxyStats(1); ok {
		t.Fatal("node 1 still has a proxy after move")
	}
	if _, ok := sys.AppServer(1); !ok {
		t.Fatal("node 1 has no app server after move")
	}
	if sys.Cluster.Layout() != "1/3/2" {
		t.Fatalf("layout = %s, want 1/3/2", sys.Cluster.Layout())
	}
	// Traffic still flows after the move.
	c := driveFor(sys, tpcw.Shopping, 30)
	if c.Total() == 0 {
		t.Fatal("no traffic after reconfiguration")
	}
}

func TestMoveNodeRefusesToEmptyTier(t *testing.T) {
	sys := New(Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("emptied a tier")
		}
	}()
	sys.MoveNode(0, cluster.TierApp, nil)
}

func TestMoveNodeToSameTierIsNoop(t *testing.T) {
	sys := smallSystem(0)
	sys.MoveNode(0, cluster.TierProxy, nil)
	if sys.Cluster.Layout() != "2/2/2" {
		t.Fatal("same-tier move changed layout")
	}
}

func TestWorkLinesRouteAndCount(t *testing.T) {
	sys := smallSystem(2)
	if sys.WorkLines() != 2 {
		t.Fatal("WorkLines wrong")
	}
	c := driveFor(sys, tpcw.Shopping, 60)
	l0, l1 := sys.LineCompleted(0), sys.LineCompleted(1)
	if l0 == 0 || l1 == 0 {
		t.Fatalf("lines unevenly used: %d / %d", l0, l1)
	}
	if sys.LineCompleted(5) != 0 || sys.LineCompleted(-1) != 0 {
		t.Fatal("out-of-range line should count 0")
	}
	if total := c.Total(); l0+l1 != total {
		t.Fatalf("line counts %d+%d != total %d", l0, l1, total)
	}
}

func TestWorkLinesRequireEnoughNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("work lines with too few nodes accepted")
		}
	}()
	New(Options{ProxyNodes: 1, AppNodes: 2, DBNodes: 2, WorkLines: 2, Scale: 100})
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c := driveFor(smallSystem(0), tpcw.Ordering, 60)
		return c.Total(), c.Errors
	}
	ok1, f1 := run()
	ok2, f2 := run()
	if ok1 != ok2 || f1 != f2 {
		t.Fatalf("system not deterministic: (%d,%d) vs (%d,%d)", ok1, f1, ok2, f2)
	}
}

func TestResetCounters(t *testing.T) {
	sys := smallSystem(2)
	driveFor(sys, tpcw.Shopping, 20)
	sys.ResetCounters()
	if sys.LineCompleted(0) != 0 || sys.LineCompleted(1) != 0 {
		t.Fatal("ResetCounters left residue")
	}
}

func TestMeasureWindows(t *testing.T) {
	sys := smallSystem(0)
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 40, Workload: tpcw.Shopping, ThinkMean: 1, Seed: 9,
	})
	m1 := Measure(sys, d, 5, 30, 5)
	if m1.WIPS <= 0 {
		t.Fatal("Measure returned no throughput")
	}
	if sys.Eng.Now() != 40 {
		t.Fatalf("clock = %v, want 40 after 5+30+5 windows", sys.Eng.Now())
	}
	// WIPSb + WIPSo == WIPS.
	if diff := m1.WIPS - (m1.WIPSb + m1.WIPSo); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("WIPS split inconsistent: %v != %v + %v", m1.WIPS, m1.WIPSb, m1.WIPSo)
	}
	// A second iteration continues from the current clock.
	sys.Restart()
	m2 := Measure(sys, d, 5, 30, 5)
	if sys.Eng.Now() != 80 {
		t.Fatalf("clock = %v, want 80", sys.Eng.Now())
	}
	if m2.WIPS <= 0 {
		t.Fatal("second iteration no throughput")
	}
}

func TestSpaceForTiers(t *testing.T) {
	if SpaceFor(cluster.TierProxy).Len() != 7 {
		t.Fatal("proxy space should have 7 parameters")
	}
	if SpaceFor(cluster.TierApp).Len() != 7 {
		t.Fatal("app space should have 7 parameters")
	}
	if SpaceFor(cluster.TierDB).Len() != 9 {
		t.Fatal("db space should have 9 parameters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad tier accepted")
		}
	}()
	SpaceFor(cluster.Tier(9))
}

func TestMeasurementResponseTimes(t *testing.T) {
	sys := smallSystem(0)
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 40, Workload: tpcw.Shopping, ThinkMean: 1, Seed: 9,
	})
	m := Measure(sys, d, 5, 30, 2)
	if m.RespMean <= 0 || m.RespP50 <= 0 {
		t.Fatal("response times not measured")
	}
	if !(m.RespP50 <= m.RespP90 && m.RespP90 <= m.RespP99) {
		t.Fatalf("percentiles not ordered: %v %v %v", m.RespP50, m.RespP90, m.RespP99)
	}
	if m.RespP99 > 30 {
		t.Fatalf("P99 response %vs implausible", m.RespP99)
	}
}

func TestMeasurementLineWIPSSumsToWIPS(t *testing.T) {
	sys := smallSystem(2)
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 40, Workload: tpcw.Shopping, ThinkMean: 1, Seed: 9,
	})
	m := Measure(sys, d, 5, 30, 2)
	if len(m.LineWIPS) != 2 {
		t.Fatalf("LineWIPS = %v", m.LineWIPS)
	}
	sum := m.LineWIPS[0] + m.LineWIPS[1]
	if diff := sum - m.WIPS; diff > 0.5 || diff < -0.5 {
		t.Fatalf("line WIPS %v do not sum to WIPS %v", m.LineWIPS, m.WIPS)
	}
}
