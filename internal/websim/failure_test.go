package websim

import (
	"testing"

	"webharmony/internal/tpcw"
)

func TestServiceSurvivesProxyFailure(t *testing.T) {
	sys := smallSystem(0) // 2/2/2
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 60, Workload: tpcw.Shopping, ThinkMean: 1, Seed: 5,
	})
	d.Start()
	sys.Eng.RunUntil(30)
	d.ResetCounters()
	sys.FailNode(0) // one of two proxies
	if !sys.failed[0] {
		t.Fatal("node not marked failed")
	}
	sys.Eng.RunUntil(sys.Eng.Now() + 60)
	c := d.Counters()
	if c.Total() == 0 {
		t.Fatal("service died with one proxy remaining")
	}
	if c.ErrorRate() > 0.2 {
		t.Fatalf("error rate %.2f after single-proxy failure", c.ErrorRate())
	}
	// The dead node served nothing.
	if st, ok := sys.ProxyStats(0); ok {
		t.Fatalf("failed node still has a live proxy: %+v", st)
	}
}

func TestTierOutageFailsRequests(t *testing.T) {
	sys := New(Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 300, Seed: 2})
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 20, Workload: tpcw.Shopping, ThinkMean: 0.5, Seed: 3,
	})
	d.Start()
	sys.Eng.RunUntil(20)
	d.ResetCounters()
	sys.FailNode(2) // the only database node
	sys.Eng.RunUntil(sys.Eng.Now() + 30)
	c := d.Counters()
	if c.Errors == 0 {
		t.Fatal("no errors despite a total database outage")
	}
	// Static pages (no DB) can still complete.
	if c.Total() == 0 {
		t.Fatal("even static pages failed")
	}
}

func TestRecoveryRestoresService(t *testing.T) {
	sys := New(Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 300, Seed: 2})
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers: 20, Workload: tpcw.Ordering, ThinkMean: 0.5, Seed: 3,
	})
	d.Start()
	sys.FailNode(2)
	sys.Eng.RunUntil(20)
	sys.RecoverNode(2)
	if sys.failed[2] {
		t.Fatal("node still marked failed")
	}
	d.ResetCounters()
	sys.Eng.RunUntil(sys.Eng.Now() + 40)
	c := d.Counters()
	if c.Order == 0 {
		t.Fatal("order pages still failing after recovery")
	}
	if c.ErrorRate() > 0.3 {
		t.Fatalf("error rate %.2f after recovery", c.ErrorRate())
	}
}

func TestFailedNodeStaysDownAcrossRestart(t *testing.T) {
	sys := smallSystem(0)
	sys.FailNode(1)
	sys.Restart()
	if _, ok := sys.ProxyStats(1); ok {
		t.Fatal("Restart resurrected a failed node")
	}
	sys.RecoverNode(1)
	if _, ok := sys.ProxyStats(1); !ok {
		t.Fatal("recovery did not restart the server")
	}
}

func TestFailUnknownNodePanics(t *testing.T) {
	sys := smallSystem(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sys.FailNode(99)
}

func TestFailRecoverIdempotent(t *testing.T) {
	sys := smallSystem(0)
	sys.FailNode(0)
	sys.FailNode(0) // no-op
	sys.RecoverNode(0)
	sys.RecoverNode(0) // no-op
	if sys.failed[0] {
		t.Fatal("state wrong after idempotent ops")
	}
}
