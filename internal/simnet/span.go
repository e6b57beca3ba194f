package simnet

// Per-request span recording. A SpanBuf collects one request's timeline as
// a sequence of contiguous segments, each attributed to a site (an opaque
// uint8 the caller assigns to stations and pools — the web simulator maps
// them to tier resources) and a kind (queue wait or service). The active
// buffer is the span half of the engine's attribution context (attr, in
// engine.go), which also carries the profiler's stack: events capture the
// submitting request's context and restore it around their callback,
// stations stamp a queue segment when a job enters service and a service
// segment when it completes, and token pools stamp the wait when a queued
// Acquire is granted. Everything is inert — and free — until a request
// begins a span.
//
// Time inside a span is integer microsecond ticks: each float64 timestamp
// is rounded once, durations are tick differences, and consecutive
// segments share their boundary tick, so segment durations telescope —
// their sum equals the last tick minus the first exactly, with no epsilon.
// That integer-exact decomposition is what the latency attribution layer's
// invariant tests pin (DESIGN.md §9).

// Span segment kinds: time a request spent waiting for a resource versus
// holding it.
const (
	// SpanQueue is time spent waiting: in a station's FIFO queue or a
	// token pool's wait queue.
	SpanQueue uint8 = iota
	// SpanService is time spent being served: station service, inter-tier
	// transfers, external-service delays.
	SpanService
)

// SpanKindName returns the segment-kind name used in exported span dumps.
func SpanKindName(k uint8) string {
	if k == SpanQueue {
		return "queue"
	}
	return "service"
}

// Ticks converts a simulated time in seconds to integer microsecond ticks,
// the span layer's time unit. Rounding happens exactly once per timestamp;
// all span arithmetic is on ticks, which is what makes decomposition sums
// exact.
func Ticks(t float64) int64 { return int64(t*1e6 + 0.5) }

// NowTicks returns the current simulated time in span ticks.
func (e *Engine) NowTicks() int64 { return Ticks(e.now) }

// SpanSeg is one contiguous interval of a request's timeline: Dur ticks
// attributed to Site doing Kind. Site 0 is reserved for unattributed time
// (closing residuals on requests that died mid-pipeline).
type SpanSeg struct {
	Site uint8
	Kind uint8
	Dur  int64
}

// SpanKid is one child span folded into its parent: a contiguous
// sub-request (an embedded image, a static page document) whose copied
// segments live in the parent's KidSegs[Seg0:Seg0+NSeg]. Critical marks
// the child whose chain is on the parent's critical path — for a parallel
// fan-out, the last child to complete.
type SpanKid struct {
	Start    int64 // absolute start tick
	End      int64 // absolute end tick
	Seg0     int32 // first segment in the parent's KidSegs
	NSeg     int32
	Critical bool
	OK       bool
	Label    uint8 // caller-defined classification (websim: cache outcome)
}

// SpanBuf is one request's span recording. It lives inside the request's
// pooled record and is recycled with it: Begin resets the buffer in place,
// reusing the segment storage, so steady-state recording allocates nothing
// once the slices reach their high-water capacity.
type SpanBuf struct {
	active bool
	start  int64 // tick of Begin
	last   int64 // end tick of the last recorded segment

	// Segs is the request's own timeline; Kids/KidSegs hold folded child
	// spans. Exported so the aggregation layer can fold and seal buffers
	// without copying; callers must treat them as read-only outside the
	// owning request's completion path.
	Segs    []SpanSeg
	Kids    []SpanKid
	KidSegs []SpanSeg
}

// Begin starts (or restarts) recording at tick now, resetting the buffer
// in place and keeping the segment storage.
func (b *SpanBuf) Begin(now int64) {
	b.active = true
	b.start = now
	b.last = now
	b.Segs = b.Segs[:0]
	b.Kids = b.Kids[:0]
	b.KidSegs = b.KidSegs[:0]
}

// Active reports whether the buffer is recording.
func (b *SpanBuf) Active() bool { return b.active }

// Start returns the tick recording began at.
func (b *SpanBuf) Start() int64 { return b.start }

// Mark records the interval [last, now] as a segment attributed to
// (site, kind) and advances last. Zero-length intervals are skipped —
// dropping them changes no sums. No-op on an inactive buffer, which is how
// instrumentation sites cost nothing when span recording is off.
func (b *SpanBuf) Mark(site, kind uint8, now int64) {
	if !b.active || now <= b.last {
		return
	}
	b.Segs = append(b.Segs, SpanSeg{Site: site, Kind: kind, Dur: now - b.last})
	b.last = now
}

// CloseAt seals the buffer at tick end: an uncovered tail [last, end] is
// recorded as an unattributed segment (site 0) so the segments always tile
// [Start, end] exactly, and the buffer stops accepting marks. Requests
// that complete synchronously from their last mark leave no residual.
func (b *SpanBuf) CloseAt(end int64) {
	if !b.active {
		return
	}
	if end > b.last {
		b.Segs = append(b.Segs, SpanSeg{Site: 0, Kind: SpanQueue, Dur: end - b.last})
		b.last = end
	}
	b.active = false
}

// Deactivate stops recording without sealing (the aggregation layer seals
// page spans itself, because child spans — not a trailing segment — cover
// the tail of a fan-out).
func (b *SpanBuf) Deactivate() { b.active = false }

// AddChild seals child c at tick end and folds it into b as a child span,
// copying its segments into b's reused child storage. Returns the child's
// index for SetCritical. The child buffer is left inactive and ready to be
// recycled with its record.
func (b *SpanBuf) AddChild(c *SpanBuf, end int64, ok bool, label uint8) int {
	c.CloseAt(end)
	seg0 := int32(len(b.KidSegs))
	b.KidSegs = append(b.KidSegs, c.Segs...)
	b.Kids = append(b.Kids, SpanKid{
		Start: c.start,
		End:   c.last,
		Seg0:  seg0,
		NSeg:  int32(len(c.Segs)),
		OK:    ok,
		Label: label,
	})
	return len(b.Kids) - 1
}

// SetCritical marks or unmarks a child span as on the critical path.
func (b *SpanBuf) SetCritical(i int, v bool) { b.Kids[i].Critical = v }

// KidSpanSegs returns the segments of child i.
func (b *SpanBuf) KidSpanSegs(i int) []SpanSeg {
	k := b.Kids[i]
	return b.KidSegs[k.Seg0 : k.Seg0+int32(k.NSeg)]
}

// SetSpan installs b as the current span context and returns the previous
// one; events scheduled while it is installed capture it. Pass nil to
// detach — work scheduled afterwards (think timers, samplers) belongs to
// no request.
func (e *Engine) SetSpan(b *SpanBuf) *SpanBuf {
	prev := e.cur.span
	e.cur.span = b
	return prev
}
