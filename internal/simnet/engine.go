// Package simnet is a deterministic discrete-event simulation engine with
// the queueing primitives (multi-server stations, token pools) used to model
// the three-tier web cluster.
//
// Time is a float64 number of simulated seconds. Events scheduled for the
// same instant fire in scheduling order (a monotone sequence number breaks
// ties), so simulations are fully deterministic.
//
// The event loop is the hot path of every experiment in the repo: a single
// tuning iteration dispatches millions of events, so the loop avoids
// per-event heap allocation by recycling event records through a free list
// (Timers carry a generation number so a handle to a fired-and-recycled
// event can never cancel its successor) and keeps canceled timers cheap by
// marking them dead in place (lazy cancel) and compacting the heap only
// when dead entries pile up. See DESIGN.md §7.
package simnet

// Engine is the event loop of a simulation. The zero value is ready to use
// and starts at time 0.
type Engine struct {
	now      float64
	seq      uint64
	events   eventHeap
	canceled int      // dead (canceled, unpopped) events still in the heap
	free     []*event // recycled event records

	// prof is the attached trace-driven profiler (profile.go), nil when
	// profiling is off. cur is the attribution context of the event being
	// dispatched; events scheduled during dispatch inherit it.
	prof *Profile
	cur  attr
}

// attr is the attribution context one unit of work carries through the
// engine and the queueing primitives: the profiler's folded stack
// (profile.go) and the request's span buffer (span.go). Events, queued
// station jobs and pool waiters capture the context that submitted them
// and restore it around their callback, so deferred work is charged to its
// submitter rather than to whichever event happened to start it. Both
// halves are inert until used: stack stays "" while no profile is attached
// and span stays nil until a request begins a span.
type attr struct {
	stack string
	span  *SpanBuf
}

// event is a scheduled callback. Records are recycled through Engine.free;
// gen increments on every recycle so stale Timer handles turn into no-ops.
// A nil fn marks a canceled (dead) event awaiting pop or compaction.
type event struct {
	at   float64
	seq  uint64
	fn   func()
	gen  uint64
	attr attr // context of the scheduling event, restored at dispatch
}

// compactMin is the minimum number of dead events before Cancel considers
// compacting the heap; below it the lazy pop-time sweep is always cheaper.
const compactMin = 64

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than layered on container/heap: the event loop pushes and pops
// millions of times per experiment and the interface indirection of
// heap.Push/heap.Pop is measurable there.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() *event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 1 {
		(*h).siftDown(0)
	}
	return top
}

// init re-establishes the heap invariant after the slice was rebuilt.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Timer is a handle to a scheduled event that can be canceled. The zero
// value (and a nil *Timer) is a valid no-op handle.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled timer is a no-op. The canceled event's callback — and
// any state its closure captured — is released immediately rather than
// lingering in the heap until popped, and when dead events outnumber live
// ones the heap is compacted, so long runs that cancel many timers (e.g.
// the Figure 5 think-time churn) hold no unbounded garbage.
func (t *Timer) Cancel() {
	if t == nil || t.ev == nil {
		return
	}
	ev := t.ev
	if ev.gen != t.gen || ev.fn == nil {
		return // already fired, recycled, or canceled
	}
	ev.fn = nil // drop the closure (and everything it captured) now
	ev.attr = attr{}
	e := t.eng
	e.canceled++
	if e.canceled >= compactMin && e.canceled*2 > len(e.events) {
		e.compact()
	}
}

// compact rebuilds the heap without its dead events, recycling them.
func (e *Engine) compact() {
	live := e.events[:0]
	for _, ev := range e.events {
		if ev.fn != nil {
			live = append(live, ev)
		} else {
			e.release(ev)
		}
	}
	// Zero the tail so released records are not retained twice.
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	e.events.init()
	e.canceled = 0
}

// alloc returns a recycled event record, or a fresh one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles a popped event record. The generation bump invalidates
// every Timer handle still pointing at it.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.attr = attr{}
	ev.gen++
	e.free = append(e.free, ev)
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule arranges for fn to run delay seconds from now. A negative delay
// is treated as zero. It returns a Timer that can cancel the event.
func (e *Engine) Schedule(delay float64, fn func()) Timer {
	return e.scheduleAttr(delay, e.cur, fn)
}

// scheduleAttr is Schedule with an explicit attribution context, used by
// the queueing primitives to run deferred work (a queued job's service)
// under the context that submitted it.
func (e *Engine) scheduleAttr(delay float64, a attr, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc()
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.fn = fn
	ev.attr = a
	e.seq++
	e.events.push(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// deferred returns the current context extended by the frame
// name+kind, for work a queueing primitive runs later on the submitter's
// behalf. The frame string is built only while a profile is attached; the
// stack is "" otherwise, so the unprofiled path allocates nothing.
func (e *Engine) deferred(name, kind string) attr {
	a := e.cur
	if e.prof != nil {
		a.stack = appendFrame(a.stack, name+kind)
	}
	return a
}

// At arranges for fn to run at absolute simulated time t; if t is in the
// past it runs at the current time.
func (e *Engine) At(t float64, fn func()) Timer {
	return e.Schedule(t-e.now, fn)
}

// Step executes the next pending event and returns true, or returns false
// if no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.fn == nil {
			e.canceled--
			e.release(ev)
			continue
		}
		fn, a := ev.fn, ev.attr
		if e.prof != nil {
			e.prof.record(a.stack, ev.at-e.now)
		}
		e.now = ev.at
		e.release(ev)
		e.cur = a
		fn()
		e.cur = attr{}
		return true
	}
	return false
}

// RunUntil executes events in order until the next event would fire after
// time t (or no events remain), then advances the clock to exactly t.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 {
		// Peek; heap index 0 is the earliest event. A dead event at the
		// head is fine: every live event fires at or after its time.
		if e.events[0].at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of live (scheduled and not canceled) events.
func (e *Engine) Pending() int { return len(e.events) - e.canceled }
