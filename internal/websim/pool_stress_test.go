package websim

import (
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/tpcw"
)

// TestPoolChurnStress hammers the pooled request records with mid-flight
// churn: nodes of every tier failing and recovering, whole-system
// restarts replacing the tier servers underneath in-flight pages, and
// workload switches — under an ordering-heavy load that exercises
// rejections at every accept queue. The stage sentinels panic if a stale
// callback ever reaches a recycled record, so the test completing at all
// proves recycled structs never alias a live page; the live counters and
// free-list bounds then prove the pools neither leak records nor
// double-free them. The CI race job runs this under -race.
func TestPoolChurnStress(t *testing.T) {
	const browsers = 120
	sys := New(Options{
		ProxyNodes:     2,
		AppNodes:       2,
		DBNodes:        2,
		Scale:          300,
		Seed:           77,
		ProxyDiskBytes: 1 << 20,
	})
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers:  browsers,
		Workload:  tpcw.Ordering,
		ThinkMean: 0.2,
		Seed:      77,
	})
	d.Start()

	ids := map[cluster.Tier][]int{}
	maxImages := 0
	for _, n := range sys.Cluster.Nodes() {
		ids[n.Tier()] = append(ids[n.Tier()], n.ID())
	}
	for i := 0; i < tpcw.NumInteractions; i++ {
		if p := tpcw.ProfileOf(tpcw.Interaction(i)); p.Images > maxImages {
			maxImages = p.Images
		}
	}

	now := 0.0
	step := func(dt float64) {
		now += dt
		sys.Eng.RunUntil(now)
	}
	workloads := tpcw.Workloads()
	for round := 0; round < 24; round++ {
		step(0.8)
		// Fail one node of a rotating tier with requests in flight, run
		// with the tier degraded, then bring it back.
		tier := cluster.Tiers()[round%3]
		id := ids[tier][round%len(ids[tier])]
		sys.FailNode(id)
		step(0.7)
		sys.RecoverNode(id)
		if round%3 == 0 {
			// Replace every tier server underneath the in-flight pages.
			sys.Restart()
		}
		if round%4 == 0 {
			d.SetWorkload(workloads[(round/4)%len(workloads)])
		}
		if sys.livePages < 0 || sys.liveObjs < 0 {
			t.Fatalf("round %d: negative live counts (pages=%d objs=%d): a record was double-freed",
				round, sys.livePages, sys.liveObjs)
		}
		if sys.livePages > browsers {
			t.Fatalf("round %d: %d live pages for %d browsers: records leaked",
				round, sys.livePages, browsers)
		}
	}
	d.Stop()
	sys.Eng.Run() // drain every in-flight page

	if sys.livePages != 0 || sys.liveObjs != 0 {
		t.Errorf("after drain: %d pages and %d objects still live, want 0/0", sys.livePages, sys.liveObjs)
	}
	c := d.Counters()
	if got, want := sys.pageOK+sys.pageFail, c.Total()+c.Errors; got != want {
		t.Errorf("page accounting diverged: system settled %d pages, driver saw %d", got, want)
	}
	// Each browser has at most one page in flight, and a page at most
	// 1+maxImages objects, so the free lists can never legitimately exceed
	// those high-water marks — more would mean double-freed records.
	if len(sys.freePages) > browsers {
		t.Errorf("free page list holds %d records, cap is %d browsers", len(sys.freePages), browsers)
	}
	if max := browsers * (1 + maxImages); len(sys.freeObjs) > max {
		t.Errorf("free object list holds %d records, cap is %d", len(sys.freeObjs), max)
	}
	if sys.pageOK == 0 || sys.pageFail == 0 {
		t.Errorf("stress run not exercising both outcomes: ok=%d fail=%d", sys.pageOK, sys.pageFail)
	}
}
