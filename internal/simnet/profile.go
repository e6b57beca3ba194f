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
// With no profile attached (SetProfile never called) the whole layer is a
// nil check per event and per instrumented call site.

// maxFrames bounds the folded-stack depth so a mislabeled recursive chain
// cannot grow contexts without bound; deeper frames are dropped (the stack
// keeps its prefix). The instrumented pipeline needs ~12 frames.
const maxFrames = 24

// unattributed is the stack that owns dispatches outside any frame.
const unattributed = "(unattributed)"

// appendFrame extends a folded stack by one frame, enforcing maxFrames.
func appendFrame(ctx, name string) string {
	if ctx == "" {
		return name
	}
	if strings.Count(ctx, ";") >= maxFrames-1 {
		return ctx
	}
	return ctx + ";" + name
}

// SetProfile attaches a profile to the engine; every subsequent dispatch is
// recorded. A nil profile detaches and restores the zero-overhead path.
// Attaching a profile never changes what the simulation computes: labels
// ride along with events but neither reorder them nor touch any RNG.
func (e *Engine) SetProfile(p *Profile) {
	e.prof = p
	if p == nil {
		e.cur.stack = ""
	}
}

// Frame is a token returned by Enter/EnterRoot and restored by Exit; the
// zero value (returned when profiling is off) makes Exit a no-op.
type Frame struct {
	eng  *Engine
	prev string
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
	e.cur.stack = appendFrame(e.cur.stack, name)
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
	e.cur.stack = name
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

// Profile accumulates sim-time-weighted folded stacks from one engine (or,
// after Merge, several). Not safe for concurrent use; in parallel runs each
// lab owns a profile and the collector merges them after the join.
type Profile struct {
	stacks map[string]*stackWeight
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{stacks: make(map[string]*stackWeight)}
}

// record attributes one dispatch: dt simulated seconds of clock advance.
func (p *Profile) record(stack string, dt float64) {
	if stack == "" {
		stack = unattributed
	}
	w := p.stacks[stack]
	if w == nil {
		w = &stackWeight{}
		p.stacks[stack] = w
	}
	w.events++
	w.simTime += dt
}

// Merge adds every stack of o into p. Per-stack sums commute across merge
// order up to float association; callers that need byte-stable output must
// merge in a fixed order (the telemetry collector merges recorders sorted
// by (replicate, unit)).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	for stack, ow := range o.stacks {
		w := p.stacks[stack]
		if w == nil {
			w = &stackWeight{}
			p.stacks[stack] = w
		}
		w.events += ow.events
		w.simTime += ow.simTime
	}
}

// Empty reports whether nothing has been recorded. A nil profile is empty.
func (p *Profile) Empty() bool { return p == nil || len(p.stacks) == 0 }

// Events returns the total number of recorded dispatches.
func (p *Profile) Events() uint64 {
	var n uint64
	for _, w := range p.stacks {
		n += w.events
	}
	return n
}

// SimTime returns the total attributed simulated seconds.
func (p *Profile) SimTime() float64 {
	var t float64
	for _, w := range p.stacks {
		t += w.simTime
	}
	return t
}

// sortedStacks returns the stack keys in lexicographic order.
func (p *Profile) sortedStacks() []string {
	out := make([]string, 0, len(p.stacks))
	for s := range p.stacks {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// WriteFolded writes the profile in the folded-stack format consumed by
// flamegraph.pl and speedscope: one "frame;frame;frame weight" line per
// stack, weight in integer microseconds of simulated time, stacks in
// lexicographic order so the bytes are stable across runs and merges.
func (p *Profile) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, stack := range p.sortedStacks() {
		sw := p.stacks[stack]
		us := int64(sw.simTime*1e6 + 0.5)
		if _, err := fmt.Fprintf(bw, "%s %d\n", stack, us); err != nil {
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
	type row struct {
		stack string
		w     *stackWeight
	}
	rows := make([]row, 0, len(p.stacks))
	for _, s := range p.sortedStacks() {
		rows = append(rows, row{stack: s, w: p.stacks[s]})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].w.simTime != rows[j].w.simTime {
			return rows[i].w.simTime > rows[j].w.simTime
		}
		return rows[i].stack < rows[j].stack
	})
	total := p.SimTime()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "simnet event-loop profile: %d dispatches, %.3fs simulated, %d stacks\n",
		p.Events(), total, len(rows))
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
