package websim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/simnet"
	"webharmony/internal/tpcw"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// pipelineFingerprint drives one small simulated site through a fixed
// scenario and renders every observable the request pipeline produces —
// page counters, per-interaction counts, response-time statistics,
// per-tier server stats and the full sim-time-weighted attribution
// profile — into one deterministic document.
//
// The golden recorded from this fingerprint pins the closure-based
// pipeline's exact behavior: event order, RNG draw order, queueing
// integrals and profiler contexts. The pooled pageRequest state machine
// must reproduce it byte-for-byte (see DESIGN.md §7), so any refactor
// that reorders a Schedule/Submit/Acquire or drops an attribution frame
// fails this test instead of silently shifting experiment output.
func pipelineFingerprint(t *testing.T, seed uint64, sessions, churn bool) string {
	t.Helper()
	sys := New(Options{
		ProxyNodes:     2,
		AppNodes:       2,
		DBNodes:        2,
		Scale:          300,
		Seed:           seed,
		ProxyDiskBytes: 1 << 20,
	})
	prof := simnet.NewProfile()
	sys.Eng.SetProfile(prof)
	d := tpcw.NewDriver(sys.Eng, sys, sys.Catalog, tpcw.DriverOptions{
		Browsers:  60,
		Workload:  tpcw.Shopping,
		ThinkMean: 0.5,
		Seed:      seed ^ 0xfeed,
		Sessions:  sessions,
	})
	d.Start()
	run := func(until float64) { sys.Eng.RunUntil(until) }
	run(6)
	if churn {
		// Exercise the failure, restart and reconfiguration surfaces with
		// requests in flight: pooled request state must survive servers
		// being replaced underneath it.
		var proxyID, appID int
		for _, n := range sys.Cluster.TierNodes(cluster.TierProxy) {
			proxyID = n.ID()
		}
		for _, n := range sys.Cluster.TierNodes(cluster.TierApp) {
			appID = n.ID()
		}
		sys.FailNode(proxyID)
		run(8)
		sys.FailNode(appID)
		run(10)
		sys.Restart()
		run(12)
		sys.RecoverNode(proxyID)
		sys.RecoverNode(appID)
		run(14)
		d.SetWorkload(tpcw.Ordering)
		run(18)
	} else {
		run(18)
	}
	d.Stop()
	sys.Eng.Run() // drain in-flight pages

	var b strings.Builder
	fmt.Fprintf(&b, "now=%.9f pending=%d\n", sys.Eng.Now(), sys.Eng.Pending())
	fmt.Fprintf(&b, "pages ok=%d fail=%d\n", sys.pageOK, sys.pageFail)
	c := d.Counters()
	fmt.Fprintf(&b, "browse=%d order=%d errors=%d\n", c.Browse, c.Order, c.Errors)
	for i := 0; i < tpcw.NumInteractions; i++ {
		fmt.Fprintf(&b, "completed[%02d]=%d\n", i, c.Completed[i])
	}
	rt := d.ResponseTimes()
	fmt.Fprintf(&b, "resp mean=%.12g p50=%.12g p90=%.12g p99=%.12g\n",
		rt.Mean(), rt.Percentile(50), rt.Percentile(90), rt.Percentile(99))
	for _, n := range sys.Cluster.Nodes() {
		fmt.Fprintf(&b, "node %d tier=%v cpu(busy=%.9f done=%d) disk(done=%d) nic(done=%d)\n",
			n.ID(), n.Tier(), n.CPU().BusyTime(), n.CPU().Completed(),
			n.Disk().Completed(), n.NIC().Completed())
		if ps, ok := sys.ProxyStats(n.ID()); ok {
			fmt.Fprintf(&b, "  proxy hits=%d/%d misses=%d\n", ps.HitsMem, ps.HitsDisk, ps.Misses)
		}
		if a, ok := sys.AppServer(n.ID()); ok {
			as := a.Stats()
			fmt.Fprintf(&b, "  app acc=%d rejH=%d rejA=%d done=%d\n",
				as.Accepted, as.RejectedHTTP, as.RejectedAJP, as.Completed)
		}
		if dbs, ok := sys.DBServer(n.ID()); ok {
			ds := dbs.Stats()
			fmt.Fprintf(&b, "  db q=%d rej=%d reopen=%d spill=%d reads=%d done=%d\n",
				ds.Queries, ds.RejectedConns, ds.TableReopens, ds.BinlogSpills, ds.DiskReads, ds.Completed)
		}
	}
	b.WriteString("--- profile ---\n")
	if err := prof.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestPipelineFingerprintGolden locks the request pipeline's observable
// behavior across a seed matrix — quiet runs, session-graph browsing and
// mid-flight failure/restart churn. The full rendering runs to ~30k lines,
// almost all of it profile stacks, so the golden pins it by SHA-256 and
// keeps only a readable excerpt: the counters and per-tier stats of every
// scenario, with the profile reduced to its stack count. On a mismatch the
// test writes the full rendering to a temporary file and names it.
// Regenerate (only when an intentional behavior change is being made)
// with:
//
//	go test ./internal/websim/ -run TestPipelineFingerprintGolden -update
func TestPipelineFingerprintGolden(t *testing.T) {
	var doc strings.Builder
	for _, seed := range []uint64{1, 2, 3} {
		for _, tc := range []struct {
			name            string
			sessions, churn bool
		}{
			{"steady", false, false},
			{"sessions", true, false},
			{"churn", false, true},
		} {
			fmt.Fprintf(&doc, "=== seed=%d scenario=%s ===\n", seed, tc.name)
			doc.WriteString(pipelineFingerprint(t, seed, tc.sessions, tc.churn))
		}
	}
	full := doc.String()
	got := fingerprintDigest(full)
	golden := filepath.Join("testdata", "pipeline_fingerprint.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	f, err := os.CreateTemp("", "pipeline_fingerprint-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(full); err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("pipeline fingerprint diverges from golden at line %d:\n got %q\nwant %q\nfull rendering: %s",
				i+1, gotLines[i], wantLines[i], f.Name())
		}
	}
	t.Fatalf("pipeline fingerprint has %d golden lines, want %d; full rendering: %s",
		len(gotLines), len(wantLines), f.Name())
}

// fingerprintDigest renders what the golden pins of a full fingerprint:
// its SHA-256 and size, then every line outside the profile sections, with
// each profile section reduced to its stack count.
func fingerprintDigest(full string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sha256 %x bytes %d\n", sha256.Sum256([]byte(full)), len(full))
	stacks, inProfile := 0, false
	for _, line := range strings.SplitAfter(full, "\n") {
		switch {
		case strings.HasPrefix(line, "=== "):
			if inProfile {
				fmt.Fprintf(&b, "--- profile: %d stacks ---\n", stacks)
			}
			stacks, inProfile = 0, false
			b.WriteString(line)
		case line == "--- profile ---\n":
			inProfile = true
		case inProfile && line != "":
			stacks++
		default:
			b.WriteString(line)
		}
	}
	if inProfile {
		fmt.Fprintf(&b, "--- profile: %d stacks ---\n", stacks)
	}
	return b.String()
}
