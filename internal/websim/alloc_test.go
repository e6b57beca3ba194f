package websim

import (
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/tpcw"
	"webharmony/internal/webobj"
)

// allocSystem is the one-node-per-tier system the page-path allocation
// tests measure.
func allocSystem() *System {
	return New(Options{
		ProxyNodes: 1,
		AppNodes:   1,
		DBNodes:    1,
		Scale:      200,
		Seed:       11,
	})
}

// checkPagePathAllocs serves pages one at a time through sys until its
// free lists, event heap and pool wait queues reach steady state, then
// fails t if the average page allocates more than the 2.0 ceiling or a
// pooled record leaks. what names the configuration in the failure.
func checkPagePathAllocs(t *testing.T, sys *System, what string) {
	t.Helper()
	gen := tpcw.NewPageGen(sys.Catalog, rng.New(99))
	var buf []webobj.Object
	done := func(bool) {}
	next := 0
	serve := func() {
		// Browsers 0–3 cover both lines of a two-line system.
		pr := gen.PageBuf(tpcw.Interaction(next%tpcw.NumInteractions), next%4, buf)
		next++
		buf = pr.Images
		sys.Request(pr, done)
		sys.Eng.Run()
	}
	// Warm up: fill the proxy cache, grow the free lists, the event heap
	// and the pool wait queues to their steady-state capacities.
	for i := 0; i < 3000; i++ {
		serve()
	}
	const ceiling = 2.0
	if avg := testing.AllocsPerRun(3000, serve); avg > ceiling {
		t.Errorf("%s: %.3f allocs/page, ceiling %.1f", what, avg, ceiling)
	}
	if sys.livePages != 0 || sys.liveObjs != 0 {
		t.Errorf("leaked pooled records: %d pages, %d objects still live after drain",
			sys.livePages, sys.liveObjs)
	}
}

// TestPagePathAllocs pins the steady-state allocation cost of one complete
// page request (System.Request through finishPage, across all three
// tiers). With the pooled pageReq/objReq/call/query state machines and the
// engine's event free list, a warmed system serves pages from recycled
// records: the only remaining allocations are amortized container growth
// and cache-admission bookkeeping on the occasional miss, so the per-page
// average must stay a small constant (DESIGN.md §7).
//
// The routing table holds the same ceiling, and picks allocate nothing, on
// a 2/2/2 system split into two work lines and on one with a failed node:
// routing used to filter a tier's node list on every pick there.
func TestPagePathAllocs(t *testing.T) {
	checkPagePathAllocs(t, allocSystem(), "page path")
	t.Run("two-lines", func(t *testing.T) {
		sys := smallSystem(2)
		checkPagePathAllocs(t, sys, "two-line page path")
		checkPickAllocs(t, sys)
	})
	t.Run("failed-node", func(t *testing.T) {
		sys := smallSystem(0)
		sys.FailNode(sys.Cluster.TierNodes(cluster.TierApp)[0].ID())
		checkPagePathAllocs(t, sys, "page path with a failed node")
		checkPickAllocs(t, sys)
	})
}

// checkPickAllocs fails t unless a pick in every tier, for browsers on
// every work line, allocates nothing.
func checkPickAllocs(t *testing.T, sys *System) {
	t.Helper()
	eb := 0
	pick := func() {
		sys.pickProxy(eb)
		sys.pickApp(eb)
		sys.pickDB(eb)
		eb++
	}
	if avg := testing.AllocsPerRun(1000, pick); avg != 0 {
		t.Errorf("%.3f allocs per three picks, want 0", avg)
	}
}

// TestPagePathAllocsProfiled holds the same ceiling with the sim-time
// profiler attached, alone and together with a span sink: every page
// pushes page, tier and station frames, which cost nothing once their
// stacks are interned.
func TestPagePathAllocsProfiled(t *testing.T) {
	t.Run("profile", func(t *testing.T) {
		sys := allocSystem()
		sys.Eng.SetProfile(simnet.NewProfile())
		checkPagePathAllocs(t, sys, "profiled page path")
	})
	t.Run("profile+spans", func(t *testing.T) {
		sys := allocSystem()
		sys.Eng.SetProfile(simnet.NewProfile())
		sys.SetSpanSink(NewSpanSink(0))
		checkPagePathAllocs(t, sys, "profiled page path with spans")
	})
}
