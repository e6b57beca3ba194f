package hproto

import (
	"math"
	"strings"
	"sync"
	"testing"

	"webharmony/internal/param"
)

func testDefs() []param.Def {
	return []param.Def{
		{Name: "x", Min: 0, Max: 100, Default: 10, Step: 1},
		{Name: "y", Min: 0, Max: 100, Default: 90, Step: 1},
	}
}

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestRegisterNextReportBest(t *testing.T) {
	_, c := newPair(t)
	if err := c.Register("s1", testDefs(), "", 1); err != nil {
		t.Fatal(err)
	}
	// Drive a few tuning iterations over the wire: performance peaks at
	// x=70, y=30.
	for i := 0; i < 60; i++ {
		cfg, values, err := c.Next("s1")
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg) != 2 {
			t.Fatalf("config = %v", cfg)
		}
		if values["x"] != cfg[0] || values["y"] != cfg[1] {
			t.Fatalf("values map mismatch: %v vs %v", values, cfg)
		}
		dx := float64(cfg[0]) - 70
		dy := float64(cfg[1]) - 30
		if err := c.Report("s1", 1000-(dx*dx+dy*dy)/10); err != nil {
			t.Fatal(err)
		}
	}
	cfg, perf, have, err := c.Best("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !have || perf <= 0 {
		t.Fatalf("no best: perf=%v have=%v", perf, have)
	}
	dx := float64(cfg[0]) - 70
	dy := float64(cfg[1]) - 30
	if dx*dx+dy*dy > 3000 {
		t.Fatalf("best config %v far from the peak", cfg)
	}
}

func TestRegisterValidation(t *testing.T) {
	srv, c := newPair(t)
	if err := c.Register("", testDefs(), "", 1); err == nil {
		t.Fatal("empty session accepted")
	}
	if err := c.Register("s", nil, "", 1); err == nil {
		t.Fatal("no params accepted")
	}
	if err := c.Register("s", testDefs(), "simulated-annealing", 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	bad := []param.Def{{Name: "x", Min: 10, Max: 0, Default: 5, Step: 1}}
	if err := c.Register("s", bad, "", 1); err == nil {
		t.Fatal("invalid def accepted")
	}
	// Tuner factors the session would silently ignore are refused. JSON
	// cannot carry NaN or Inf, so those cases call dispatch in-process.
	factors := []struct {
		name         string
		guard, shift float64
		wire         bool
		want         string
	}{
		{"guard-above-one", 1.5, 0, true, "guard factor 1.5 is outside [0, 1)"},
		{"guard-negative", -0.1, 0, true, "guard factor -0.1 is outside [0, 1)"},
		{"shift-negative", 0, -0.5, true, "shift factor -0.5 is not a finite value >= 0"},
		{"guard-nan", math.NaN(), 0, false, "guard factor NaN is outside [0, 1)"},
		{"shift-nan", 0, math.NaN(), false, "shift factor NaN is not a finite value >= 0"},
		{"shift-inf", 0, math.Inf(1), false, "shift factor +Inf is not a finite value >= 0"},
	}
	for _, f := range factors {
		req := Request{Op: OpRegister, Session: "s", Params: testDefs(), GuardFactor: f.guard, ShiftFactor: f.shift}
		var resp Response
		if f.wire {
			var err error
			if resp, err = c.Do(req); err != nil {
				t.Fatal(err)
			}
		} else {
			resp, _ = srv.dispatch(req)
		}
		if resp.OK || !strings.Contains(resp.Error, f.want) {
			t.Errorf("%s: register = %+v, want an error containing %q", f.name, resp, f.want)
		}
	}
	if err := c.Register("s", testDefs(), "random", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("s", testDefs(), "", 1); err == nil {
		t.Fatal("duplicate session accepted")
	}
}

func TestReportWithoutNextFails(t *testing.T) {
	_, c := newPair(t)
	if err := c.Register("s", testDefs(), "", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Report("s", 1); err == nil {
		t.Fatal("report without next accepted")
	}
}

func TestUnknownSessionFails(t *testing.T) {
	_, c := newPair(t)
	if _, _, err := c.Next("ghost"); err == nil {
		t.Fatal("unknown session accepted")
	}
}

func TestUnknownOp(t *testing.T) {
	_, c := newPair(t)
	if err := c.Register("s", testDefs(), "", 1); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(Request{Op: "dance", Session: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("unknown op accepted")
	}
}

func TestMalformedLineGetsErrorResponse(t *testing.T) {
	srv, _ := newPair(t)
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c2.r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if len(line) == 0 {
		t.Fatal("no response to malformed line")
	}
}

func TestListAndClose(t *testing.T) {
	_, c := newPair(t)
	c.Register("b", testDefs(), "", 1)
	c.Register("a", testDefs(), "", 1)
	resp, err := c.Do(Request{Op: OpList})
	if err != nil || !resp.OK {
		t.Fatalf("list failed: %v %v", err, resp.Error)
	}
	if len(resp.Sessions) != 2 || resp.Sessions[0] != "a" || resp.Sessions[1] != "b" {
		t.Fatalf("sessions = %v", resp.Sessions)
	}
	if resp, _ := c.Do(Request{Op: OpClose, Session: "a"}); !resp.OK {
		t.Fatal("close failed")
	}
	if resp, _ := c.Do(Request{Op: OpClose, Session: "a"}); resp.OK {
		t.Fatal("double close accepted")
	}
}

func TestRestartOverWire(t *testing.T) {
	_, c := newPair(t)
	c.Register("s", testDefs(), "", 1)
	cfg, _, _ := c.Next("s")
	_ = cfg
	c.Report("s", 50)
	if resp, _ := c.Do(Request{Op: OpRestart, Session: "s"}); !resp.OK {
		t.Fatal("restart failed")
	}
	// After restart, Best is cleared.
	_, _, have, err := c.Best("s")
	if err != nil {
		t.Fatal(err)
	}
	if have {
		t.Fatal("best survived restart")
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv, _ := newPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			name := string(rune('a' + g))
			if err := c.Register(name, testDefs(), "", uint64(g)); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				cfg, _, err := c.Next(name)
				if err != nil {
					errs <- err
					return
				}
				if err := c.Report(name, float64(cfg[0])); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		// Close error from the listener is acceptable; what matters is
		// that new connections fail below.
		_ = err
	}
	if c, err := Dial(addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after Close")
	}
}

func TestSaveRestoreOverWire(t *testing.T) {
	_, c := newPair(t)
	if err := c.Register("s", testDefs(), "", 17); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		cfg, _, err := c.Next("s")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Report("s", float64(200-cfg[0])); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Do(Request{Op: OpSave, Session: "s"})
	if err != nil || !resp.OK {
		t.Fatalf("save failed: %v %v", err, resp.Error)
	}
	if len(resp.Snapshot) == 0 {
		t.Fatal("empty snapshot")
	}
	// Restore under a new name; it must continue where the original is.
	resp2, err := c.Do(Request{Op: OpRestore, Session: "s2", Snapshot: resp.Snapshot})
	if err != nil || !resp2.OK {
		t.Fatalf("restore failed: %v %v", err, resp2.Error)
	}
	if resp2.Iterations != 25 {
		t.Fatalf("restored iterations = %d, want 25", resp2.Iterations)
	}
	c1, _, err := c.Next("s")
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := c.Next("s2")
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Equal(c2) {
		t.Fatalf("restored session diverged: %v vs %v", c1, c2)
	}
}

func TestSaveWithPendingProposalFails(t *testing.T) {
	_, c := newPair(t)
	c.Register("s", testDefs(), "", 1)
	c.Next("s")
	resp, err := c.Do(Request{Op: OpSave, Session: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("save with pending proposal accepted")
	}
}

func TestRestoreValidationOverWire(t *testing.T) {
	_, c := newPair(t)
	resp, _ := c.Do(Request{Op: OpRestore, Session: "x", Snapshot: []byte("{bad")})
	if resp.OK {
		t.Fatal("garbage snapshot accepted")
	}
	resp, _ = c.Do(Request{Op: OpRestore, Session: "", Snapshot: []byte("{}")})
	if resp.OK {
		t.Fatal("empty session name accepted")
	}
	// Duplicate name.
	c.Register("dup", testDefs(), "", 1)
	c.Next("dup")
	c.Report("dup", 1)
	save, _ := c.Do(Request{Op: OpSave, Session: "dup"})
	resp, _ = c.Do(Request{Op: OpRestore, Session: "dup", Snapshot: save.Snapshot})
	if resp.OK {
		t.Fatal("duplicate restore accepted")
	}
}
