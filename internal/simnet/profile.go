package simnet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the trace-driven event-loop profiler: it answers "where does
// simulated time go?" by attributing every event dispatch to a folded stack
// of attribution frames (page class → tier → station → event kind) and
// accumulating two weights per stack — the number of dispatches and the
// simulated time the clock advanced to reach the event.
//
// Attribution is threaded, not sampled. The folded stack is the profiler's
// half of the engine's attribution context (attr, in engine.go), which also
// carries the request span: events scheduled during dispatch inherit it,
// instrumented call sites push frames with Enter/EnterRoot, and the
// queueing primitives carry the submitter's context across their queues.
// Everything is derived from the deterministic event sequence, so a
// profile is byte-identical across runs and worker counts — unlike
// wall-clock pprof, which the repo also ships (harmonyd -debug-addr) but
// which cannot be compared across machines or checked into a test.
//
// Stacks are interned: the profile owns a trie of frames and the context
// carries a node id, so pushing a frame is a scan of the parent's few
// children and recording a dispatch is one slice increment — no string is
// built or hashed on the event path.
// Path strings ("a;b;c") are rendered only when the profile is written.
//
// With no profile attached (SetProfile never called) the whole layer is a
// nil check per event and per instrumented call site.

// maxFrames bounds the folded-stack depth so a mislabeled recursive chain
// cannot grow contexts without bound; deeper frames are dropped (the stack
// keeps its prefix). The instrumented pipeline needs ~12 frames.
const maxFrames = 24

// unattributed is how the empty stack (id 0) renders: it owns the
// dispatches outside any frame.
const unattributed = "(unattributed)"

// SetProfile attaches a profile to the engine; every subsequent dispatch is
// recorded. A nil profile detaches and restores the zero-overhead path.
// Attaching a profile never changes what the simulation computes: labels
// ride along with events but neither reorder them nor touch any RNG.
//
// Stack ids are meaningful only to the profile that interned them, and
// pending events may still carry ids after a detach, so an engine serves
// one profile for its lifetime: re-attaching the same profile is fine,
// attaching a different one panics.
func (e *Engine) SetProfile(p *Profile) {
	if p != nil {
		if e.owner != nil && e.owner != p {
			panic("simnet: SetProfile with a second profile; an engine's stack ids belong to its first")
		}
		e.owner = p
	}
	e.prof = p
	e.cur.stack = 0
}

// Frame is a token returned by Enter/EnterRoot and restored by Exit; the
// zero value (returned when profiling is off) makes Exit a no-op.
type Frame struct {
	eng  *Engine
	prev int32
	ok   bool
}

// Enter pushes an attribution frame: events scheduled until the matching
// Exit carry the extended stack. No-op (and allocation-free) when no
// profile is attached.
func (e *Engine) Enter(name string) Frame {
	if e.prof == nil {
		return Frame{}
	}
	f := Frame{eng: e, prev: e.cur.stack, ok: true}
	e.cur.stack = e.prof.child(e.cur.stack, name)
	return f
}

// EnterRoot resets the attribution stack to a single frame — the start of
// a new logical unit of work (a page request, a browser think period) —
// so stacks cannot grow across request boundaries.
func (e *Engine) EnterRoot(name string) Frame {
	if e.prof == nil {
		return Frame{}
	}
	f := Frame{eng: e, prev: e.cur.stack, ok: true}
	e.cur.stack = e.prof.child(0, name)
	return f
}

// Exit restores the attribution stack saved by Enter/EnterRoot.
func (f Frame) Exit() {
	if f.ok {
		f.eng.cur.stack = f.prev
	}
}

// stackWeight accumulates one folded stack's two weights.
type stackWeight struct {
	events  uint64
	simTime float64
}

// stackNode is one interned stack: its parent's id plus the last frame.
// depth is the number of ";" separators in the rendered path, the measure
// maxFrames caps. first is the id of the node's first child and next that
// of its next sibling, 0 for none (node 0 is nobody's child).
type stackNode struct {
	parent int32
	depth  int32
	first  int32
	next   int32
	frame  string
	w      stackWeight
}

// Profile accumulates sim-time-weighted folded stacks from one engine (or,
// after Merge, several). Not safe for concurrent use; in parallel runs each
// lab owns a profile and the collector merges them after the join.
//
// nodes[0] is the empty stack; every other node's parent precedes it, and
// every other node renders to a non-empty path. Freeze marks the profile's
// unit done: merging and writing read the nodes, interning panics.
type Profile struct {
	nodes  []stackNode
	frozen bool
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{nodes: make([]stackNode, 1)}
}

// child returns the id of the stack parent extended by frame, interning it
// on first use. It extends exactly as the folded path would: a frame
// pushed on the empty stack starts the path, and a parent already
// maxFrames-1 separators deep keeps its prefix.
func (p *Profile) child(parent int32, frame string) int32 {
	if parent == 0 && frame == "" {
		return 0
	}
	if parent != 0 && p.nodes[parent].depth >= maxFrames-1 {
		return parent
	}
	if p.frozen {
		panic("simnet: stack interned into a frozen profile")
	}
	last := int32(0)
	for id := p.nodes[parent].first; id != 0; id = p.nodes[id].next {
		if p.nodes[id].frame == frame {
			return id
		}
		last = id
	}
	depth := int32(strings.Count(frame, ";"))
	if parent != 0 {
		depth += p.nodes[parent].depth + 1
	}
	id := int32(len(p.nodes))
	p.nodes = append(p.nodes, stackNode{parent: parent, frame: frame, depth: depth})
	if last == 0 {
		p.nodes[parent].first = id
	} else {
		p.nodes[last].next = id
	}
	return id
}

// Freeze marks the profile's unit done: the recorded stacks stay
// readable, mergeable into other profiles and writable, but pushing a
// frame (Enter/EnterRoot on an engine still attached) or merging into this
// profile panics. Freezing again is a no-op.
func (p *Profile) Freeze() { p.frozen = true }

// record attributes one dispatch: dt simulated seconds of clock advance.
func (p *Profile) record(stack int32, dt float64) {
	w := &p.nodes[stack].w
	w.events++
	w.simTime += dt
}

// Merge adds every stack of o into p. Parents precede children in o, so
// each of o's nodes maps onto p with one child lookup. Per-stack sums
// commute across merge order up to float association; callers that need
// byte-stable output must merge in a fixed order (the telemetry collector
// merges recorders sorted by (replicate, unit)).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	ids := make([]int32, len(o.nodes))
	for i := 1; i < len(o.nodes); i++ {
		n := &o.nodes[i]
		ids[i] = p.child(ids[n.parent], n.frame)
	}
	for i := range o.nodes {
		if ow := o.nodes[i].w; ow.events > 0 {
			w := &p.nodes[ids[i]].w
			w.events += ow.events
			w.simTime += ow.simTime
		}
	}
}

// foldedStack is one rendered stack with its weights.
type foldedStack struct {
	stack string
	w     stackWeight
}

// folded renders the recorded stacks in lexicographic order. Nodes that
// render to the same path (a frame name containing ";") are summed into
// one entry, in node order.
func (p *Profile) folded() []foldedStack {
	paths := make([]string, len(p.nodes))
	byPath := make(map[string]int)
	var out []foldedStack
	for i := range p.nodes {
		n := &p.nodes[i]
		switch {
		case i == 0:
			paths[i] = unattributed
		case n.parent == 0:
			paths[i] = n.frame
		default:
			paths[i] = paths[n.parent] + ";" + n.frame
		}
		if n.w.events == 0 {
			continue
		}
		if j, ok := byPath[paths[i]]; ok {
			out[j].w.events += n.w.events
			out[j].w.simTime += n.w.simTime
			continue
		}
		byPath[paths[i]] = len(out)
		out = append(out, foldedStack{stack: paths[i], w: n.w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].stack < out[j].stack })
	return out
}

// totals sums the weights of fs, in order.
func totals(fs []foldedStack) stackWeight {
	var t stackWeight
	for _, f := range fs {
		t.events += f.w.events
		t.simTime += f.w.simTime
	}
	return t
}

// Events returns the total number of recorded dispatches.
func (p *Profile) Events() uint64 { return totals(p.folded()).events }

// WriteFolded writes the profile in the folded-stack format consumed by
// flamegraph.pl and speedscope: one "frame;frame;frame weight" line per
// stack, weight in integer microseconds of simulated time, stacks in
// lexicographic order so the bytes are stable across runs and merges.
func (p *Profile) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range p.folded() {
		us := int64(f.w.simTime*1e6 + 0.5)
		if _, err := fmt.Fprintf(bw, "%s %d\n", f.stack, us); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// rollupRows bounds the stack table in WriteRollup; the remainder is
// aggregated into one line so the rollup stays readable at any scale.
const rollupRows = 40

// WriteRollup writes a human-readable rollup: totals, then the stacks
// ordered by attributed simulated time (descending; stack name breaks
// ties) with share-of-total and dispatch counts. Deterministic: both sort
// keys and all weights are exact functions of the event sequence.
func (p *Profile) WriteRollup(w io.Writer) error {
	rows := p.folded()
	tot := totals(rows)
	total := tot.simTime
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].w.simTime != rows[j].w.simTime {
			return rows[i].w.simTime > rows[j].w.simTime
		}
		return rows[i].stack < rows[j].stack
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "simnet event-loop profile: %d dispatches, %.3fs simulated, %d stacks\n",
		tot.events, total, len(rows))
	fmt.Fprintf(bw, "%14s %7s %12s  %s\n", "sim-time", "share", "dispatches", "stack")
	shown := rows
	if len(shown) > rollupRows {
		shown = shown[:rollupRows]
	}
	pct := func(t float64) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * t / total
	}
	for _, r := range shown {
		fmt.Fprintf(bw, "%13.3fs %6.2f%% %12d  %s\n",
			r.w.simTime, pct(r.w.simTime), r.w.events, r.stack)
	}
	if rest := rows[len(shown):]; len(rest) > 0 {
		var t float64
		var n uint64
		for _, r := range rest {
			t += r.w.simTime
			n += r.w.events
		}
		fmt.Fprintf(bw, "%13.3fs %6.2f%% %12d  … %d more stacks\n", t, pct(t), n, len(rest))
	}
	return bw.Flush()
}
