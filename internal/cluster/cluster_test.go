package cluster

import (
	"testing"
	"testing/quick"

	"webharmony/internal/simnet"
)

func newEngine() *simnet.Engine { return &simnet.Engine{} }

func TestTierString(t *testing.T) {
	if TierProxy.String() != "proxy" || TierApp.String() != "app" ||
		TierDB.String() != "db" || Tier(9).String() != "unknown" {
		t.Fatal("Tier.String wrong")
	}
	if len(Tiers()) != 3 {
		t.Fatal("Tiers() wrong")
	}
}

func TestResourceString(t *testing.T) {
	names := map[Resource]string{ResCPU: "cpu", ResMemory: "memory", ResNet: "net", ResDisk: "disk"}
	for r, want := range names {
		if r.String() != want {
			t.Fatalf("Resource(%d).String = %q, want %q", r, r.String(), want)
		}
	}
	if Resource(99).String() != "unknown" {
		t.Fatal("unknown resource name")
	}
	if NumResources != 4 {
		t.Fatalf("NumResources = %d, want 4", NumResources)
	}
}

func TestDefaultHardwareMatchesTable2(t *testing.T) {
	hw := DefaultHardware()
	if hw.Cores != 2 {
		t.Error("paper machines are dual-processor")
	}
	if hw.MemoryBytes != 1<<30 {
		t.Error("paper machines have 1 GB memory")
	}
	if hw.NetRate != 12.5*(1<<20) {
		t.Error("paper network is 100 Mb/s")
	}
}

func TestNewClusterLayout(t *testing.T) {
	c := New(newEngine(), DefaultHardware(), 4, 2, 1)
	if len(c.Nodes()) != 7 {
		t.Fatalf("nodes = %d, want 7", len(c.Nodes()))
	}
	if c.TierSize(TierProxy) != 4 || c.TierSize(TierApp) != 2 || c.TierSize(TierDB) != 1 {
		t.Fatalf("layout = %s", c.Layout())
	}
	if c.Layout() != "4/2/1" {
		t.Fatalf("Layout = %q", c.Layout())
	}
	if c.Node(0).Tier() != TierProxy || c.Node(6).Tier() != TierDB {
		t.Fatal("tier assignment order wrong")
	}
	if c.Node(99) != nil {
		t.Fatal("missing node should be nil")
	}
}

func TestNewClusterPanicsOnEmptyTier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty tier")
		}
	}()
	New(newEngine(), DefaultHardware(), 1, 0, 1)
}

func TestSetTierMovesNode(t *testing.T) {
	c := New(newEngine(), DefaultHardware(), 2, 2, 1)
	n := c.TierNodes(TierProxy)[0]
	n.SetTier(TierApp)
	if c.TierSize(TierProxy) != 1 || c.TierSize(TierApp) != 3 {
		t.Fatalf("after move layout = %s", c.Layout())
	}
}

func TestMemoryPressureSlowdown(t *testing.T) {
	eng := newEngine()
	n := NewNode(eng, 0, TierApp, DefaultHardware())
	n.SetMemUsed(512 << 20)
	if n.Slowdown() != 1 {
		t.Fatalf("slowdown below capacity = %v, want 1", n.Slowdown())
	}
	n.SetMemUsed(1 << 30)
	if n.Slowdown() != 1 {
		t.Fatalf("slowdown at capacity = %v, want 1", n.Slowdown())
	}
	n.SetMemUsed(3 << 29) // 1.5 GB: 50% overcommit
	s := n.Slowdown()
	if s <= 1 {
		t.Fatalf("no slowdown at 50%% overcommit")
	}
	n.SetMemUsed(2 << 30) // 100% overcommit
	if n.Slowdown() <= s {
		t.Fatal("slowdown not monotone in overcommit")
	}
	n.SetMemUsed(-5)
	if n.memUsed != 0 {
		t.Fatal("negative memory not clamped")
	}
}

func TestMemoryPressureSlowsCPU(t *testing.T) {
	eng := newEngine()
	n := NewNode(eng, 0, TierApp, DefaultHardware())
	var normalDone, thrashDone float64
	n.CPU().Submit(1, func() { normalDone = eng.Now() })
	eng.Run()
	n.SetMemUsed(2 << 30)
	start := eng.Now()
	n.CPU().Submit(1, func() { thrashDone = eng.Now() - start })
	eng.Run()
	if thrashDone <= normalDone {
		t.Fatalf("thrashing job (%v) not slower than normal (%v)", thrashDone, normalDone)
	}
}

func TestMemUtilizationClamped(t *testing.T) {
	n := NewNode(newEngine(), 0, TierApp, DefaultHardware())
	n.SetMemUsed(4 << 30)
	if n.MemUtilization() != 1 {
		t.Fatalf("MemUtilization = %v, want clamped 1", n.MemUtilization())
	}
}

func TestUtilizationWindow(t *testing.T) {
	eng := newEngine()
	n := NewNode(eng, 0, TierProxy, DefaultHardware())
	snap := n.Snapshot()
	// Occupy one of two cores for the whole window.
	n.CPU().Submit(10, nil)
	eng.RunUntil(10)
	u := n.Utilization(snap)
	if u[ResCPU] < 0.45 || u[ResCPU] > 0.55 {
		t.Fatalf("CPU utilization = %v, want ~0.5", u[ResCPU])
	}
	if u[ResDisk] != 0 || u[ResNet] != 0 {
		t.Fatal("idle resources show utilization")
	}
}

func TestDemandConversions(t *testing.T) {
	n := NewNode(newEngine(), 0, TierDB, DefaultHardware())
	d := n.DiskDemand(30 << 20) // 30 MB at 30 MB/s = 1s + seek
	if d < 1.0 || d > 1.01 {
		t.Fatalf("DiskDemand = %v, want ~1.004", d)
	}
	nd := n.NetDemand(12_500_000 * 2)
	if nd < 1.8 || nd > 2.0 {
		t.Fatalf("NetDemand = %v, want ~1.9", nd)
	}
}

func TestNodePanicsOnBadHardware(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid hardware")
		}
	}()
	NewNode(newEngine(), 0, TierApp, Hardware{})
}

func TestSlowdownMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		eng := newEngine()
		n := NewNode(eng, 0, TierApp, DefaultHardware())
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		n.SetMemUsed(lo << 10)
		sLo := n.Slowdown()
		n.SetMemUsed(hi << 10)
		sHi := n.Slowdown()
		return sHi >= sLo && sLo >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanSiteVocabulary(t *testing.T) {
	seen := make(map[string]bool)
	for site := 0; site < NumSpanSites; site++ {
		name := SpanSiteName(uint8(site))
		if name == "" || name == "unknown" {
			t.Errorf("site %d has no name", site)
		}
		if seen[name] {
			t.Errorf("duplicate site name %q", name)
		}
		seen[name] = true
		g := SpanSiteGroup(uint8(site))
		if int(g) >= NumSpanGroups {
			t.Errorf("site %q maps to out-of-range group %d", name, g)
		}
		if gn := SpanGroupName(g); gn == "" || gn == "unknown" {
			t.Errorf("group %d of site %q has no name", g, name)
		}
	}
	if got := SpanSiteName(uint8(NumSpanSites)); got != "unknown" {
		t.Errorf("SpanSiteName(out of range) = %q, want \"unknown\"", got)
	}
	if got := SpanSiteGroup(uint8(NumSpanSites)); got != SpanGroupOther {
		t.Errorf("SpanSiteGroup(out of range) = %d, want other", got)
	}
	if got := SpanGroupName(uint8(NumSpanGroups)); got != "unknown" {
		t.Errorf("SpanGroupName(out of range) = %q, want \"unknown\"", got)
	}
	// The reserved unattributed site rolls up to "other".
	if SpanSiteName(SpanSiteNone) != "other" || SpanSiteGroup(SpanSiteNone) != SpanGroupOther {
		t.Error("site 0 must be the unattributed residual")
	}
}

// TestSpanSitesFollowTier runs one job through a node's CPU before and
// after a tier move and asserts the recorded attribution site follows the
// move — the property the bottleneck report depends on during §IV
// reconfigurations.
func TestSpanSitesFollowTier(t *testing.T) {
	eng := newEngine()
	n := NewNode(eng, 0, TierProxy, DefaultHardware())

	runOne := func() simnet.SpanSeg {
		var buf simnet.SpanBuf
		eng.Schedule(0, func() {
			buf.Begin(eng.NowTicks())
			prev := eng.SetSpan(&buf)
			n.CPU().Submit(0.001, func() { buf.CloseAt(eng.NowTicks()) })
			eng.SetSpan(prev)
		})
		eng.Run()
		if len(buf.Segs) != 1 {
			t.Fatalf("got %d segments, want 1", len(buf.Segs))
		}
		return buf.Segs[0]
	}

	if seg := runOne(); seg.Site != SpanSiteProxyCPU {
		t.Errorf("proxy-tier CPU seg at site %s, want proxy.cpu", SpanSiteName(seg.Site))
	}
	n.SetTier(TierDB)
	if seg := runOne(); seg.Site != SpanSiteDBCPU {
		t.Errorf("after move, CPU seg at site %s, want db.cpu", SpanSiteName(seg.Site))
	}
	if n.Disk() == nil || n.NIC() == nil || n.Hardware() != DefaultHardware() {
		t.Error("node accessors broken")
	}
	if n.ID() != 0 || n.Name() == "" {
		t.Errorf("node identity broken: id %d name %q", n.ID(), n.Name())
	}
}
