package websim

import (
	"webharmony/internal/cluster"
	"webharmony/internal/simnet"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// SpanSink aggregates completed page span trees into the latency
// attribution surface: per-(interaction, tier-group, kind) latency
// histograms, running queue/service attribution totals snapshotted at
// tuning-iteration boundaries, and a deterministically sampled set of full
// span dumps. One sink serves one System — in a tuning run, one
// (replicate, unit) lab — so everything here is single-threaded and the
// telemetry collector can merge sinks in (replicate, unit) order for
// worker-count-independent output.
//
// The fold path (page) is on the simulator's hot path and allocates
// nothing in steady state: the histogram table is allocated once, on the
// first fold, attribution totals are plain counters, and only the sampled
// pages copy their span tree out of the pooled request records.
//
// A sink lives in two phases. While live it holds the dense histogram
// table; Freeze reduces the table to the row summaries the latency
// writer prints and drops it, after which folding panics. The sink never
// references the System it serves, so a finished unit's sink does not keep
// its simulated cluster reachable.
type SpanSink struct {
	// live is the dense histogram table, nil until the first fold and
	// again after Freeze.
	live *spanHists
	// frozen holds the row summaries once Freeze has run.
	frozen *LatencySummary

	// Running attribution totals over all pages (failed ones included:
	// their waiting is real), with the previous snapshot's values kept for
	// per-iteration deltas.
	totals    [cluster.NumSpanGroups][2]int64
	prev      [cluster.NumSpanGroups][2]int64
	pages     uint64
	prevPages uint64

	snaps []AttrSnap

	// sampleEvery > 0 dumps every sampleEvery-th folded page (the first
	// page always included), a deterministic systematic sample; 0 disables
	// dumping.
	sampleEvery int
	dumps       []SpanDump
}

// spanHists is a live sink's histogram table. hists[interaction][group][kind]
// observes, per successful page, the page's summed ticks in that (tier
// group, queue|service) cell — summed across parallel children, so it is
// resource time, not wall clock. resp observes successful pages' end-to-end
// response time.
type spanHists struct {
	hists [tpcw.NumInteractions][cluster.NumSpanGroups][2]stats.LatencyHist
	resp  [tpcw.NumInteractions]stats.LatencyHist
}

// LatencyRow summarizes one latency histogram: what a latency.csv row
// prints. Quantiles are the histogram's bucket bounds (stats.LatencyHist
// Quantile), so a summary prints exactly what its histogram would.
type LatencyRow struct {
	N, Sum, Max   int64
	P50, P95, P99 int64
}

// Mean returns the exact mean of the summarized observations, or 0 if
// there were none.
func (r *LatencyRow) Mean() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Sum) / float64(r.N)
}

// summarize reduces a histogram to its row.
func summarize(h *stats.LatencyHist) LatencyRow {
	return LatencyRow{
		N: h.N(), Sum: h.Sum(), Max: h.Max(),
		P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

// LatencyBlock is one interaction's latency rows (or, merged across
// interactions, the "all" rows): end-to-end response time, then
// Cells[group][kind] for each tier group and kind (simnet.SpanQueue or
// simnet.SpanService).
type LatencyBlock struct {
	Resp  LatencyRow
	Cells [cluster.NumSpanGroups][2]LatencyRow
}

// LatencySummary is a frozen sink's latency table: All merges every
// interaction's histograms, Per holds each interaction's own.
type LatencySummary struct {
	All LatencyBlock
	Per [tpcw.NumInteractions]LatencyBlock
}

// AttrSnap is the attribution delta accumulated since the previous
// snapshot — one tuning iteration's queue/service ticks per tier group.
type AttrSnap struct {
	Iter  int     // tuning iteration the window ended at
	T     float64 // simulated time of the snapshot
	Pages uint64  // pages folded in the window
	Queue [cluster.NumSpanGroups]int64
	Svc   [cluster.NumSpanGroups]int64
}

// SpanDump is one sampled page's full span tree, copied out of the pooled
// request record at fold time.
type SpanDump struct {
	T     int64 // start tick
	Iter  tpcw.Interaction
	OK    bool
	Total int64 // end-to-end response ticks
	Segs  []simnet.SpanSeg
	Kids  []KidDump
}

// KidDump is one folded child span (page document or embedded image).
type KidDump struct {
	Offset   int64 // start tick relative to the page's start
	Total    int64 // child response ticks
	Critical bool
	OK       bool
	Cache    uint8 // objCache* label; ObjCacheName exports it
	Segs     []simnet.SpanSeg
}

// NewSpanSink creates a sink; sampleEvery > 0 additionally dumps every
// sampleEvery-th page's full span tree.
func NewSpanSink(sampleEvery int) *SpanSink {
	return &SpanSink{sampleEvery: sampleEvery}
}

// SetSpanSink attaches a sink to the system: every page request from now
// on records a span tree and folds it into the sink on completion. A nil
// sink detaches, making span recording fully inert again.
func (s *System) SetSpanSink(k *SpanSink) { s.spanSink = k }

// page folds a completing page's span tree into the sink; eng is the
// engine of the system serving the page. Called from pageReq.finish before
// the record is recycled; the span buffer's storage survives only until
// this returns.
func (k *SpanSink) page(eng *simnet.Engine, r *pageReq, ok bool) {
	if k.frozen != nil {
		panic("websim: page folded into a frozen span sink")
	}
	if k.live == nil {
		k.live = new(spanHists)
	}
	end := eng.NowTicks()
	b := &r.span
	b.Deactivate()
	// Work the page's done callback schedules (browser think timers)
	// belongs to no request; detaching here keeps the recycled buffer from
	// leaking into it.
	eng.SetSpan(nil)

	total := end - b.Start()
	var acc [cluster.NumSpanGroups][2]int64
	var rootSum, critSum int64
	for _, sg := range b.Segs {
		acc[cluster.SpanSiteGroup(sg.Site)][sg.Kind] += sg.Dur
		rootSum += sg.Dur
	}
	for i := range b.Kids {
		if b.Kids[i].Critical {
			critSum += b.Kids[i].End - b.Kids[i].Start
		}
	}
	for _, sg := range b.KidSegs {
		acc[cluster.SpanSiteGroup(sg.Site)][sg.Kind] += sg.Dur
	}
	// The page's own segments plus its critical children tile the response
	// time; a page that died mid-pipeline may leave an uncovered tail,
	// which stays visible as unattributed ("other") time rather than
	// silently vanishing. Overshoot means the decomposition is broken.
	residual := total - rootSum - critSum
	if residual < 0 {
		panic("websim: span decomposition exceeds page response time")
	}
	if residual > 0 {
		acc[cluster.SpanGroupOther][simnet.SpanQueue] += residual
	}

	k.pages++
	it := r.pr.Interaction
	if it < 0 || int(it) >= tpcw.NumInteractions {
		it = 0
	}
	for g := range acc {
		for kind := range acc[g] {
			d := acc[g][kind]
			if d == 0 {
				continue
			}
			k.totals[g][kind] += d
			if ok {
				k.live.hists[it][g][kind].Observe(d)
			}
		}
	}
	if ok {
		k.live.resp[it].Observe(total)
	}
	if k.sampleEvery > 0 && (k.pages-1)%uint64(k.sampleEvery) == 0 {
		k.dump(b, it, ok, total)
	}
}

// dump copies one page's span tree out of its pooled buffer.
func (k *SpanSink) dump(b *simnet.SpanBuf, it tpcw.Interaction, ok bool, total int64) {
	d := SpanDump{
		T:     b.Start(),
		Iter:  it,
		OK:    ok,
		Total: total,
		Segs:  append([]simnet.SpanSeg(nil), b.Segs...),
	}
	if len(b.Kids) > 0 {
		d.Kids = make([]KidDump, len(b.Kids))
		for i := range b.Kids {
			kid := &b.Kids[i]
			d.Kids[i] = KidDump{
				Offset:   kid.Start - b.Start(),
				Total:    kid.End - kid.Start,
				Critical: kid.Critical,
				OK:       kid.OK,
				Cache:    kid.Label,
				Segs:     append([]simnet.SpanSeg(nil), b.KidSpanSegs(i)...),
			}
		}
	}
	k.dumps = append(k.dumps, d)
}

// Snapshot closes the current attribution window: the queue/service ticks
// accumulated since the previous snapshot are recorded against tuning
// iteration iter at simulated time t. Call once per measured iteration.
func (k *SpanSink) Snapshot(iter int, t float64) {
	sn := AttrSnap{Iter: iter, T: t, Pages: k.pages - k.prevPages}
	for g := range k.totals {
		sn.Queue[g] = k.totals[g][simnet.SpanQueue] - k.prev[g][simnet.SpanQueue]
		sn.Svc[g] = k.totals[g][simnet.SpanService] - k.prev[g][simnet.SpanService]
	}
	k.prev = k.totals
	k.prevPages = k.pages
	k.snaps = append(k.snaps, sn)
}

// Pages returns the number of pages folded so far.
func (k *SpanSink) Pages() uint64 { return k.pages }

// Snapshots returns the attribution snapshots taken so far.
func (k *SpanSink) Snapshots() []AttrSnap { return k.snaps }

// Dumps returns the sampled span dumps.
func (k *SpanSink) Dumps() []SpanDump { return k.dumps }

// Freeze ends the sink's live phase: the histogram table is reduced to
// the row summaries Latency returns and dropped. Attribution totals,
// snapshots and dumps are kept. Folding a page afterwards panics; freezing
// again is a no-op.
func (k *SpanSink) Freeze() {
	if k.frozen != nil {
		return
	}
	s := new(LatencySummary)
	if h := k.live; h != nil {
		// The "all" rows take their quantiles from the merged histograms:
		// quantiles of the per-interaction rows would not compose.
		var all stats.LatencyHist
		for it := range h.resp {
			all.Merge(&h.resp[it])
			s.Per[it].Resp = summarize(&h.resp[it])
		}
		s.All.Resp = summarize(&all)
		for g := range s.All.Cells {
			for kind := range s.All.Cells[g] {
				var m stats.LatencyHist
				for it := range h.hists {
					m.Merge(&h.hists[it][g][kind])
					s.Per[it].Cells[g][kind] = summarize(&h.hists[it][g][kind])
				}
				s.All.Cells[g][kind] = summarize(&m)
			}
		}
	}
	k.frozen = s
	k.live = nil
}

// Latency returns the sink's latency summary, freezing the sink first if
// it is still live.
func (k *SpanSink) Latency() *LatencySummary {
	k.Freeze()
	return k.frozen
}

// QueueTotals returns the running per-group queue-wait tick totals.
func (k *SpanSink) QueueTotals() [cluster.NumSpanGroups]int64 {
	var out [cluster.NumSpanGroups]int64
	for g := range k.totals {
		out[g] = k.totals[g][simnet.SpanQueue]
	}
	return out
}
