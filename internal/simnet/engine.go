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
// per-event heap allocation by recycling event records through a free
// list. Every scheduled event fires: there is no cancel, so every queued
// record is live and the earliest head is always the next dispatch.
//
// Pending events live in two binary heaps cut by how far ahead they were
// scheduled: near holds what is due within farDelay (service completions,
// LAN hops), far holds the rest (mostly browser think timers, seconds
// ahead). The hot events then sift through a heap of a handful of entries
// instead of one holding every think timer. Both heaps are ordered by
// (at, seq) and share one seq counter, and the loop always takes the
// earlier of the two heads, so events pop in exactly the order a single
// heap would give; the cut changes speed, never results. See DESIGN.md §7.
package simnet

// Engine is the event loop of a simulation. The zero value is ready to use
// and starts at time 0.
type Engine struct {
	now  float64
	seq  uint64
	near eventHeap // events scheduled less than farDelay ahead
	far  eventHeap // events scheduled farDelay or more ahead
	free []*event  // recycled event records

	// prof is the attached trace-driven profiler (profile.go), nil when
	// profiling is off. owner is the first profile ever attached, the one
	// whose stack ids events may carry. cur is the attribution context of
	// the event being dispatched; events scheduled during dispatch inherit
	// it.
	prof  *Profile
	owner *Profile
	cur   attr
}

// attr is the attribution context one unit of work carries through the
// engine and the queueing primitives: the profiler's folded stack, as an
// id interned by the attached profile (profile.go), and the request's span
// buffer (span.go). Events, queued station jobs and pool waiters capture
// the context that submitted them and restore it around their callback, so
// deferred work is charged to its submitter rather than to whichever event
// happened to start it. Both halves are inert until used: stack stays 0
// (the empty stack) while no profile has been attached and span stays nil
// until a request begins a span.
type attr struct {
	stack int32
	span  *SpanBuf
}

// event is a scheduled callback. Records are recycled through Engine.free.
type event struct {
	at   float64
	seq  uint64
	fn   func()
	attr attr // context of the scheduling event, restored at dispatch
}

// farDelay is the cut between the two heaps: an event scheduled this many
// seconds or more ahead goes to far. In StandardLab windows at the
// default configurations, 90–94% of events are scheduled under 10 ms
// ahead, 0.6–2.3% between 10 and 100 ms, and 5–8% at 100 ms or more.
const farDelay = 0.05

// before reports whether a fires before b: the total (at, seq) order of
// the event loop.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than layered on container/heap: the event loop pushes and pops
// millions of times per experiment and the interface indirection of
// heap.Push/heap.Pop is measurable there.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool { return before(h[i], h[j]) }

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

// release recycles a popped event record.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.attr = attr{}
	e.free = append(e.free, ev)
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule arranges for fn to run delay seconds from now. A negative delay
// is treated as zero. The event always fires: a caller that no longer wants
// the work makes its callback return early.
func (e *Engine) Schedule(delay float64, fn func()) {
	e.scheduleAttr(delay, e.cur, fn)
}

// scheduleAttr is Schedule with an explicit attribution context, used by
// the queueing primitives to run deferred work (a queued job's service)
// under the context that submitted it.
func (e *Engine) scheduleAttr(delay float64, a attr, fn func()) {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc()
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.fn = fn
	ev.attr = a
	e.seq++
	if delay >= farDelay {
		e.far.push(ev)
	} else {
		e.near.push(ev)
	}
}

// deferred returns the current context extended by frame, for work a
// queueing primitive runs later on the submitter's behalf. The primitives
// build their frame strings once, so extending the stack is one lookup in
// the attached profile's trie, and nothing at all while none is attached.
func (e *Engine) deferred(frame string) attr {
	a := e.cur
	if e.prof != nil {
		a.stack = e.prof.child(a.stack, frame)
	}
	return a
}

// head returns the heap whose top is the earliest pending event, or nil
// when both heaps are empty.
func (e *Engine) head() *eventHeap {
	switch {
	case len(e.near) == 0:
		if len(e.far) == 0 {
			return nil
		}
		return &e.far
	case len(e.far) == 0 || before(e.near[0], e.far[0]):
		return &e.near
	default:
		return &e.far
	}
}

// dispatch pops and runs the top of h, the heap head selected.
func (e *Engine) dispatch(h *eventHeap) {
	ev := h.pop()
	fn, a := ev.fn, ev.attr
	if e.prof != nil {
		e.prof.record(a.stack, ev.at-e.now)
	}
	e.now = ev.at
	e.release(ev)
	e.cur = a
	fn()
	e.cur = attr{}
}

// RunUntil executes events in order until the next event would fire after
// time t (or no events remain), then advances the clock to exactly t. It
// dispatches the head it peeked at, so each event costs one head
// selection.
func (e *Engine) RunUntil(t float64) {
	for h := e.head(); h != nil && (*h)[0].at <= t; h = e.head() {
		e.dispatch(h)
	}
	if t > e.now {
		e.now = t
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for h := e.head(); h != nil; h = e.head() {
		e.dispatch(h)
	}
}
