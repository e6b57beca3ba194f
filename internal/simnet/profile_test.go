package simnet

import (
	"strings"
	"testing"
)

// TestProfileAttributionInheritance: events scheduled during a dispatch
// inherit the dispatching event's stack; Enter extends it for the span of
// the frame and Exit restores it.
func TestProfileAttributionInheritance(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)

	root := e.EnterRoot("req")
	e.Schedule(1, func() {
		f := e.Enter("inner")
		e.Schedule(1, func() {}) // stack req;inner
		f.Exit()
		e.Schedule(2, func() {}) // stack req (restored)
	})
	root.Exit()
	e.Run()

	want := map[string]uint64{"req": 2, "req;inner": 1}
	if len(p.stacks) != len(want) {
		t.Fatalf("stacks %v, want keys %v", p.stacks, want)
	}
	for stack, events := range want {
		w := p.stacks[stack]
		if w == nil || w.events != events {
			t.Fatalf("stack %q: got %+v, want %d events", stack, w, events)
		}
	}
}

// TestProfileEnterRootResets: EnterRoot replaces the whole stack, so
// request chains cannot grow without bound across logical work units.
func TestProfileEnterRootResets(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	f1 := e.Enter("a")
	f2 := e.Enter("b")
	r := e.EnterRoot("fresh")
	e.Schedule(1, func() {})
	r.Exit()
	if e.cur.stack != "a;b" {
		t.Fatalf("ctx after Exit = %q, want %q", e.cur.stack, "a;b")
	}
	f2.Exit()
	f1.Exit()
	e.Run()
	if w := p.stacks["fresh"]; w == nil || w.events != 1 {
		t.Fatalf("stack %q not recorded: %v", "fresh", p.stacks)
	}
}

// TestProfileDepthCap: beyond maxFrames the stack keeps its prefix instead
// of growing without bound.
func TestProfileDepthCap(t *testing.T) {
	e := &Engine{}
	e.SetProfile(NewProfile())
	for i := 0; i < 2*maxFrames; i++ {
		e.Enter("f")
	}
	if got := strings.Count(e.cur.stack, ";") + 1; got != maxFrames {
		t.Fatalf("stack depth = %d, want capped at %d", got, maxFrames)
	}
}

// TestProfileUnattributed: dispatches outside any frame land under the
// sentinel stack rather than an empty key.
func TestProfileUnattributed(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	e.Schedule(1, func() {})
	e.Run()
	if w := p.stacks[unattributed]; w == nil || w.events != 1 {
		t.Fatalf("unattributed dispatch not recorded: %v", p.stacks)
	}
}

// TestProfileSimTimeWeights: each dispatch is weighted by the clock
// advance it causes, so per-stack sim-time sums to total simulated time.
func TestProfileSimTimeWeights(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	r := e.EnterRoot("a")
	e.Schedule(2, func() {})
	r.Exit()
	r = e.EnterRoot("b")
	e.Schedule(5, func() {})
	r.Exit()
	e.Run()
	if got := p.stacks["a"].simTime; got != 2 {
		t.Fatalf("stack a simTime = %g, want 2", got)
	}
	if got := p.stacks["b"].simTime; got != 3 {
		t.Fatalf("stack b simTime = %g, want 3 (5 minus the 2 already elapsed)", got)
	}
	if got := p.SimTime(); got != e.Now() {
		t.Fatalf("total simTime %g != clock %g", got, e.Now())
	}
}

// TestProfileStationAttribution: a station job's completion is charged to
// the submitter's stack plus a "<station>/svc" frame — even when the job
// waited in the queue and was started by another request's completion.
func TestProfileStationAttribution(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	st := NewStation(e, "cpu", 1, 1)
	r := e.EnterRoot("first")
	st.Submit(1, nil)
	r.Exit()
	r = e.EnterRoot("second")
	st.Submit(1, nil) // queues behind first; first's completion starts it
	r.Exit()
	e.Run()
	for _, want := range []string{"first;cpu/svc", "second;cpu/svc"} {
		if w := p.stacks[want]; w == nil || w.events != 1 {
			t.Fatalf("stack %q missing: %v", want, p.stacks)
		}
	}
}

// TestProfilePoolGrantAttribution: a queued Acquire's grant work is
// charged to the acquirer's stack (plus "<pool>/grant"), not to whichever
// request happened to release the token.
func TestProfilePoolGrantAttribution(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	pool := NewTokenPool(e, "threads", 1, -1)
	st := NewStation(e, "cpu", 1, 1)
	r := e.EnterRoot("holder")
	pool.Acquire(func() {
		e.Schedule(1, func() { pool.Release() })
	}, nil)
	r.Exit()
	r = e.EnterRoot("waiter")
	pool.Acquire(func() {
		st.Submit(1, func() { pool.Release() })
	}, nil)
	r.Exit()
	e.Run()
	want := "waiter;threads/grant;cpu/svc"
	if w := p.stacks[want]; w == nil || w.events != 1 {
		t.Fatalf("stack %q missing: %v", want, p.stacks)
	}
}

// TestProfileFoldedDeterministicAndMergeOrder: WriteFolded output is
// byte-identical across re-runs, and merging the same per-unit profiles in
// the collector's fixed order reproduces it regardless of which engine
// recorded which half.
func TestProfileFoldedDeterministicAndMergeOrder(t *testing.T) {
	build := func(seedFrames []string) *Profile {
		e := &Engine{}
		p := NewProfile()
		e.SetProfile(p)
		for i, name := range seedFrames {
			r := e.EnterRoot(name)
			d := float64(i%5) + 0.125
			e.Schedule(d, func() {
				f := e.Enter("leaf")
				e.Schedule(d/2, func() {})
				f.Exit()
			})
			r.Exit()
		}
		e.Run()
		return p
	}
	frames := []string{"a", "b", "c", "a", "b", "a"}
	var out1, out2 strings.Builder
	if err := build(frames).WriteFolded(&out1); err != nil {
		t.Fatal(err)
	}
	if err := build(frames).WriteFolded(&out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("folded output differs across identical runs:\n%s\n----\n%s", out1.String(), out2.String())
	}
	// Merge in fixed order from two builds; must equal merging fresh copies.
	m1 := NewProfile()
	m1.Merge(build(frames[:3]))
	m1.Merge(build(frames[3:]))
	m2 := NewProfile()
	m2.Merge(build(frames[:3]))
	m2.Merge(build(frames[3:]))
	var f1, f2 strings.Builder
	if err := m1.WriteFolded(&f1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteFolded(&f2); err != nil {
		t.Fatal(err)
	}
	if f1.String() != f2.String() {
		t.Fatal("fixed-order merge is not byte-stable")
	}
}

// TestProfileFoldedFormat: one "stack weight" line per stack, integer
// microsecond weights, lexicographic order, no spaces inside frames.
func TestProfileFoldedFormat(t *testing.T) {
	p := NewProfile()
	p.record("b;y", 0.25)
	p.record("a;x", 1.5)
	p.record("", 0.000001)
	var sb strings.Builder
	if err := p.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	want := "(unattributed) 1\na;x 1500000\nb;y 250000\n"
	if sb.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestProfileRollup: header totals, descending sim-time order, and the
// overflow aggregate line.
func TestProfileRollup(t *testing.T) {
	p := NewProfile()
	for i := 0; i < rollupRows+5; i++ {
		p.record(strings.Repeat("s", i+1), float64(i+1))
	}
	var sb strings.Builder
	if err := p.WriteRollup(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "more stacks") {
		t.Fatalf("rollup lacks the overflow aggregate:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + column row + rollupRows + aggregate
	if len(lines) != 2+rollupRows+1 {
		t.Fatalf("rollup has %d lines, want %d", len(lines), 2+rollupRows+1)
	}
	if !strings.HasPrefix(lines[0], "simnet event-loop profile:") {
		t.Fatalf("bad header: %q", lines[0])
	}
}

// TestProfileDetachedZeroState: detaching clears the context so a later
// re-attach does not inherit stale frames, and an unprofiled engine
// records nothing.
func TestProfileDetachedZeroState(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	e.Enter("left-open")
	e.SetProfile(nil)
	if e.cur.stack != "" {
		t.Fatalf("ctx = %q after detach, want empty", e.cur.stack)
	}
	e.Schedule(1, func() {})
	e.Run()
	if !p.Empty() {
		t.Fatalf("detached engine recorded stacks: %v", p.stacks)
	}
	if f := e.Enter("x"); f.ok {
		t.Fatal("Enter returned a live frame with profiling off")
	}
}
