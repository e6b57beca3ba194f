package websim

import (
	"strings"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// spanSystem builds a small system with a sink sampling every page, so
// invariant tests see every span tree.
func spanSystem(t *testing.T, opts Options) (*System, *SpanSink) {
	t.Helper()
	sys := New(opts)
	sink := NewSpanSink(1)
	sys.SetSpanSink(sink)
	return sys, sink
}

// servePages drives n pages to completion, round-robin over interactions,
// issuing them in concurrent batches so stations and pools actually queue.
func servePages(sys *System, n int, seed uint64) {
	gen := tpcw.NewPageGen(sys.Catalog, rng.New(seed))
	done := func(bool) {}
	const batch = 16
	for i := 0; i < n; i += batch {
		for j := i; j < i+batch && j < n; j++ {
			pr := gen.Page(tpcw.Interaction(j%tpcw.NumInteractions), j%7)
			sys.Request(pr, done)
		}
		sys.Eng.Run()
	}
}

// TestSpanDecompositionInvariant is the property test of the span layer:
// for every recorded page, the page's own segments plus its critical-path
// children tile the end-to-end response time exactly — integer ticks, no
// epsilon, no unattributed residual on successful pages.
func TestSpanDecompositionInvariant(t *testing.T) {
	sys, sink := spanSystem(t, Options{
		ProxyNodes: 1, AppNodes: 2, DBNodes: 1, Scale: 300, Seed: 7,
	})
	servePages(sys, 2000, 21)

	if sink.Pages() == 0 || len(sink.Dumps()) != int(sink.Pages()) {
		t.Fatalf("sampled %d dumps of %d pages, want all", len(sink.Dumps()), sink.Pages())
	}
	var withKids, withQueue int
	for di, d := range sink.Dumps() {
		var rootSum, critSum int64
		for _, sg := range d.Segs {
			if sg.Dur <= 0 {
				t.Fatalf("dump %d: non-positive segment %+v", di, sg)
			}
			if d.OK && sg.Site == 0 {
				t.Errorf("dump %d: unattributed segment on a successful page", di)
			}
			if sg.Kind == simnet.SpanQueue {
				withQueue++
			}
			rootSum += sg.Dur
		}
		for ki, kid := range d.Kids {
			withKids++
			var kidSum int64
			for _, sg := range kid.Segs {
				if sg.Dur <= 0 {
					t.Fatalf("dump %d kid %d: non-positive segment %+v", di, ki, sg)
				}
				if kid.OK && sg.Site == 0 {
					t.Errorf("dump %d kid %d: unattributed segment on a successful child", di, ki)
				}
				kidSum += sg.Dur
			}
			if kidSum != kid.Total {
				t.Errorf("dump %d kid %d: segments sum %d != child total %d", di, ki, kidSum, kid.Total)
			}
			if kid.Critical {
				critSum += kid.Total
			}
		}
		if d.OK && rootSum+critSum != d.Total {
			t.Errorf("dump %d (%v): root %d + critical kids %d != response %d",
				di, d.Iter, rootSum, critSum, d.Total)
		}
	}
	if withKids == 0 {
		t.Error("no child spans recorded — image fan-out not captured")
	}
	if withQueue == 0 {
		t.Error("no queue segments recorded across 2000 pages")
	}
	// The tier-group histograms must agree with the running totals on
	// total observation mass for successful pages.
	if sink.Latency().Per[tpcw.Home].Resp.N == 0 {
		t.Error("no Home response-time observations")
	}
}

// TestSpanAttributionSnapshots checks windowed attribution deltas: two
// snapshots split the run, deltas are non-negative and sum to the running
// totals.
func TestSpanAttributionSnapshots(t *testing.T) {
	sys, sink := spanSystem(t, Options{
		ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 3,
	})
	servePages(sys, 400, 5)
	sink.Snapshot(1, sys.Eng.Now())
	servePages(sys, 400, 6)
	sink.Snapshot(2, sys.Eng.Now())

	snaps := sink.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Pages == 0 || snaps[1].Pages == 0 {
		t.Errorf("empty snapshot windows: %d/%d pages", snaps[0].Pages, snaps[1].Pages)
	}
	if snaps[0].Pages+snaps[1].Pages != sink.Pages() {
		t.Errorf("window pages %d+%d != total %d", snaps[0].Pages, snaps[1].Pages, sink.Pages())
	}
	qt, st := sink.QueueTotals(), sink.ServiceTotals()
	for g := 0; g < cluster.NumSpanGroups; g++ {
		if snaps[0].Queue[g] < 0 || snaps[1].Queue[g] < 0 || snaps[0].Svc[g] < 0 || snaps[1].Svc[g] < 0 {
			t.Fatalf("negative attribution delta in group %s", cluster.SpanGroupName(uint8(g)))
		}
		if snaps[0].Queue[g]+snaps[1].Queue[g] != qt[g] {
			t.Errorf("group %s queue windows do not sum to total", cluster.SpanGroupName(uint8(g)))
		}
		if snaps[0].Svc[g]+snaps[1].Svc[g] != st[g] {
			t.Errorf("group %s service windows do not sum to total", cluster.SpanGroupName(uint8(g)))
		}
	}
	// A loaded three-tier run must show service time in every tier group.
	for _, g := range []uint8{cluster.SpanGroupProxy, cluster.SpanGroupApp, cluster.SpanGroupDB, cluster.SpanGroupNet} {
		if st[g] == 0 {
			t.Errorf("no service time attributed to group %s", cluster.SpanGroupName(g))
		}
	}
}

// TestSpanRecordingIsInvisible pins the zero-overhead contract: span
// recording touches no RNG and reorders no events, so the measured
// workload metric is bit-identical with and without a sink attached.
func TestSpanRecordingIsInvisible(t *testing.T) {
	run := func(withSink bool) (uint64, float64) {
		sys := New(Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 17})
		if withSink {
			sys.SetSpanSink(NewSpanSink(1))
		}
		servePages(sys, 1500, 9)
		return sys.pageOK, sys.Eng.Now()
	}
	okA, tA := run(false)
	okB, tB := run(true)
	if okA != okB || tA != tB {
		t.Errorf("span recording perturbed the simulation: pages %d vs %d, clock %v vs %v",
			okA, okB, tA, tB)
	}
}

// TestPagePathAllocsWithSpans mirrors TestPagePathAllocs with a span sink
// attached (sampling off, so only the latency folds record): span
// recording itself must add zero steady-state allocations, holding the
// same ceiling.
func TestPagePathAllocsWithSpans(t *testing.T) {
	sys := allocSystem()
	sys.SetSpanSink(NewSpanSink(0))
	checkPagePathAllocs(t, sys, "page path with spans")
	if sys.spanSink.Pages() == 0 {
		t.Error("sink folded no pages")
	}
}

// TestSpanSinkFreeze pins the sink's two phases: Freeze reduces the live
// histogram table to the rows its histograms print and drops the table, a
// second Freeze changes nothing, and folding a page into the frozen sink
// panics by name.
func TestSpanSinkFreeze(t *testing.T) {
	sys, sink := spanSystem(t, Options{
		ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 13,
	})
	servePages(sys, 300, 8)
	live := *sink.live
	sink.Freeze()
	if sink.live != nil {
		t.Fatal("Freeze kept the histogram table")
	}
	lat := sink.Latency()
	var all stats.LatencyHist
	for it := range live.resp {
		all.Merge(&live.resp[it])
		if got, want := lat.Per[it].Resp, summarize(&live.resp[it]); got != want {
			t.Errorf("%v response row %+v, want %+v", tpcw.Interaction(it), got, want)
		}
	}
	if lat.All.Resp.N == 0 || lat.All.Resp != summarize(&all) {
		t.Errorf("all response row %+v, want %+v", lat.All.Resp, summarize(&all))
	}
	g, kind := cluster.SpanGroupApp, simnet.SpanService
	if got, want := lat.Per[tpcw.Home].Cells[g][kind], summarize(&live.hists[tpcw.Home][g][kind]); got.N == 0 || got != want {
		t.Errorf("home app service row %+v, want %+v", got, want)
	}

	frozen := *lat
	sink.Freeze()
	if sink.Latency() != lat || *lat != frozen {
		t.Error("a second Freeze changed the summary")
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "frozen span sink") {
			t.Fatalf("fold into a frozen sink: recovered %q, want the frozen-sink panic", msg)
		}
	}()
	servePages(sys, 16, 9)
}

// TestSpanSitesFollowMoves checks that reassigning a node to another tier
// re-points its stations' span attribution (the §IV reconfiguration move).
func TestSpanSitesFollowMoves(t *testing.T) {
	sys, sink := spanSystem(t, Options{
		ProxyNodes: 2, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 5,
	})
	servePages(sys, 300, 11)
	before := sink.ServiceTotals()
	// Move a proxy node into the app tier; its CPU/disk/NIC time must now
	// land in the app group.
	moved := sys.Cluster.TierNodes(cluster.TierProxy)[1].ID()
	sys.MoveNode(moved, cluster.TierApp, nil)
	sink.Snapshot(1, sys.Eng.Now())
	servePages(sys, 300, 12)
	after := sink.ServiceTotals()
	if after[cluster.SpanGroupApp] <= before[cluster.SpanGroupApp] {
		t.Error("no app-tier service time accrued after the move")
	}
}

// ServiceTotals returns the running per-group service tick totals.
func (k *SpanSink) ServiceTotals() [cluster.NumSpanGroups]int64 {
	var out [cluster.NumSpanGroups]int64
	for g := range k.totals {
		out[g] = k.totals[g][simnet.SpanService]
	}
	return out
}
