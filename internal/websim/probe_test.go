package websim

import (
	"testing"

	"webharmony/internal/tpcw"
)

// TestProbeRejectionSources prints where requests are shed per workload
// under the default configuration. Diagnostic only.
func TestProbeRejectionSources(t *testing.T) {
	for _, w := range tpcw.Workloads() {
		sys := New(Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Seed: 11})
		d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
			Browsers: 550, Workload: w, ThinkMean: 2.0, Seed: 12,
		})
		m := Measure(sys, d, 30, 150, 5)
		a, _ := sys.AppServer(1)
		dbs, _ := sys.DBServer(2)
		ps, _ := sys.ProxyStats(0)
		httpQ, ajpQ := a.QueueDepths()
		_, dbWait, _ := dbs.PoolOccupancy()
		t.Logf("%v: WIPS=%.1f err=%.3f | app queued http=%d ajp=%d | db conns waiting=%d | proxy hitMem=%d hitDisk=%d miss=%d",
			w, m.WIPS, m.ErrorRate, httpQ, ajpQ, dbWait, ps.HitsMem, ps.HitsDisk, ps.Misses)
	}
}
