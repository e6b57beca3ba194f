package simnet

import (
	"strings"
	"testing"
)

// stackPath renders a stack id of e's profile as its folded path, "" for
// the empty stack.
func stackPath(e *Engine, id int32) string {
	if id == 0 {
		return ""
	}
	p := e.owner
	path := p.nodes[id].frame
	for n := p.nodes[id].parent; n != 0; n = p.nodes[n].parent {
		path = p.nodes[n].frame + ";" + path
	}
	return path
}

// stacks renders p's recorded stacks as a map from folded path to weights.
func stacks(p *Profile) map[string]*stackWeight {
	out := make(map[string]*stackWeight)
	for _, f := range p.folded() {
		w := f.w
		out[f.stack] = &w
	}
	return out
}

// intern returns the id of the folded path ("" is the empty stack),
// interning one node per ";"-separated frame.
func (p *Profile) intern(path string) int32 {
	var id int32
	if path == "" {
		return id
	}
	for _, f := range strings.Split(path, ";") {
		id = p.child(id, f)
	}
	return id
}

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
	if len(stacks(p)) != len(want) {
		t.Fatalf("stacks %v, want keys %v", stacks(p), want)
	}
	for stack, events := range want {
		w := stacks(p)[stack]
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
	if stackPath(e, e.cur.stack) != "a;b" {
		t.Fatalf("ctx after Exit = %q, want %q", stackPath(e, e.cur.stack), "a;b")
	}
	f2.Exit()
	f1.Exit()
	e.Run()
	if w := stacks(p)["fresh"]; w == nil || w.events != 1 {
		t.Fatalf("stack %q not recorded: %v", "fresh", stacks(p))
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
	if got := strings.Count(stackPath(e, e.cur.stack), ";") + 1; got != maxFrames {
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
	if w := stacks(p)[unattributed]; w == nil || w.events != 1 {
		t.Fatalf("unattributed dispatch not recorded: %v", stacks(p))
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
	if got := stacks(p)["a"].simTime; got != 2 {
		t.Fatalf("stack a simTime = %g, want 2", got)
	}
	if got := stacks(p)["b"].simTime; got != 3 {
		t.Fatalf("stack b simTime = %g, want 3 (5 minus the 2 already elapsed)", got)
	}
	if got := totals(p.folded()).simTime; got != e.Now() {
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
		if w := stacks(p)[want]; w == nil || w.events != 1 {
			t.Fatalf("stack %q missing: %v", want, stacks(p))
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
	if w := stacks(p)[want]; w == nil || w.events != 1 {
		t.Fatalf("stack %q missing: %v", want, stacks(p))
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
	p.record(p.intern("b;y"), 0.25)
	p.record(p.intern("a;x"), 1.5)
	p.record(p.intern(""), 0.000001)
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
		p.record(p.intern(strings.Repeat("s", i+1)), float64(i+1))
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
	if stackPath(e, e.cur.stack) != "" {
		t.Fatalf("ctx = %q after detach, want empty", stackPath(e, e.cur.stack))
	}
	e.Schedule(1, func() {})
	e.Run()
	if p.Events() != 0 {
		t.Fatalf("detached engine recorded stacks: %v", stacks(p))
	}
	if f := e.Enter("x"); f.ok {
		t.Fatal("Enter returned a live frame with profiling off")
	}
}

// TestProfileTotalsSortedOrder: the float totals are summed in sorted-stack
// order, not in map or interning order. The weights are interned out of
// sorted order and their sum depends on association: a, b, c sums to 0,
// a, c, b to 1.
func TestProfileTotalsSortedOrder(t *testing.T) {
	p := NewProfile()
	weights := map[string]float64{"a": 1e16, "b": 1, "c": -1e16}
	for _, stack := range []string{"a", "c", "b"} {
		p.record(p.intern(stack), weights[stack])
	}
	var want float64
	for _, stack := range []string{"a", "b", "c"} {
		want += weights[stack]
	}
	for i := 0; i < 100; i++ {
		if got := totals(p.folded()).simTime; got != want {
			t.Fatalf("call %d: total simTime = %g, want the sorted-order sum %g", i, got, want)
		}
	}
}

// TestProfileInternMatchesFoldedPaths: interned stacks render exactly as
// the folded paths they stand for — a frame pushed on the empty stack
// starts the path, an empty frame on it stays empty, frame names may
// contain ";", and a stack maxFrames-1 separators deep keeps its prefix.
// Each stack is interned once: pushing the same frames again finds it.
func TestProfileInternMatchesFoldedPaths(t *testing.T) {
	extend := func(path, frame string) string {
		if path == "" {
			return frame
		}
		if strings.Count(path, ";") >= maxFrames-1 {
			return path
		}
		return path + ";" + frame
	}
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	frames := []string{"a", "", "b;c", "d", ""}
	interned := 0
	// The second pass pushes the same frames again: it must find every
	// stack the first pass interned and add none.
	for pass := 0; pass < 2; pass++ {
		want := ""
		for i := 0; i < 3*maxFrames; i++ {
			name := frames[i%len(frames)]
			if i%17 == 0 {
				e.EnterRoot(name)
				want = name
			} else {
				e.Enter(name)
				want = extend(want, name)
			}
			if got := stackPath(e, e.cur.stack); got != want {
				t.Fatalf("pass %d step %d (frame %q): stack %q, want %q", pass, i, name, got, want)
			}
		}
		if pass == 1 && len(p.nodes) != interned {
			t.Fatalf("pushing the same frames again grew the trie from %d to %d nodes", interned, len(p.nodes))
		}
		interned = len(p.nodes)
	}
}

// TestProfileOnePerEngine: stack ids belong to the profile that interned
// them, so attaching a different profile panics, while detaching and
// re-attaching the same one is allowed and resets the context.
func TestProfileOnePerEngine(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	e.Enter("open")
	e.SetProfile(nil)
	e.SetProfile(p)
	if e.cur.stack != 0 {
		t.Fatalf("re-attach left stack %q", stackPath(e, e.cur.stack))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a second profile did not panic")
		}
	}()
	e.SetProfile(NewProfile())
}

// TestProfileFreeze: a frozen profile writes and merges exactly what it
// did while recording and a second Freeze changes nothing, but pushing a
// frame on an engine still attached to it panics by name instead of
// writing to a nil map.
func TestProfileFreeze(t *testing.T) {
	e := &Engine{}
	p := NewProfile()
	e.SetProfile(p)
	r := e.EnterRoot("req")
	e.Schedule(1, func() {
		f := e.Enter("inner")
		e.Schedule(0.5, func() {})
		f.Exit()
	})
	r.Exit()
	e.Run()
	folded := func(p *Profile) string {
		var b strings.Builder
		if err := p.WriteFolded(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	live := folded(p)

	p.Freeze()
	p.Freeze()
	if !p.frozen {
		t.Fatal("Freeze did not mark the profile frozen")
	}
	if got := folded(p); got != live {
		t.Fatalf("frozen profile writes %q, live wrote %q", got, live)
	}
	m := NewProfile()
	m.Merge(p)
	if got := folded(m); got != live {
		t.Fatalf("merge of the frozen profile writes %q, want %q", got, live)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "frozen profile") {
			t.Fatalf("Enter on a frozen profile: recovered %q, want the frozen-profile panic", msg)
		}
	}()
	e.Enter("req")
}
