package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"webharmony/internal/cluster"
	"webharmony/internal/simnet"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// AttachSpans associates the unit's span sink with the recorder, so the
// collector can emit latency histograms, attribution windows and sampled
// span dumps in the same fixed (replicate, unit) order it uses for traces.
func (r *Recorder) AttachSpans(s *websim.SpanSink) {
	if r == nil {
		return
	}
	r.spans = s
}

// Spans returns the attached span sink, if any.
func (r *Recorder) Spans() *websim.SpanSink {
	if r == nil {
		return nil
	}
	return r.spans
}

// spanSegJSON is one span segment in an exported dump.
type spanSegJSON struct {
	Site string `json:"site"`
	Kind string `json:"kind"`
	US   int64  `json:"us"`
}

// spanKidJSON is one folded child span in an exported dump.
type spanKidJSON struct {
	OffsetUS int64         `json:"offset_us"`
	TotalUS  int64         `json:"total_us"`
	Critical bool          `json:"critical"`
	OK       bool          `json:"ok"`
	Cache    string        `json:"cache,omitempty"`
	Spans    []spanSegJSON `json:"spans"`
}

// spanDumpJSON is one sampled page span tree, one JSON line of
// spans.jsonl.
type spanDumpJSON struct {
	Replicate   int           `json:"replicate"`
	Unit        string        `json:"unit"`
	TUS         int64         `json:"t_us"`
	Interaction string        `json:"interaction"`
	OK          bool          `json:"ok"`
	TotalUS     int64         `json:"total_us"`
	Spans       []spanSegJSON `json:"spans"`
	Children    []spanKidJSON `json:"children,omitempty"`
}

// segsJSON converts span segments to their exported form.
func segsJSON(segs []simnet.SpanSeg) []spanSegJSON {
	out := make([]spanSegJSON, len(segs))
	for i, s := range segs {
		out[i] = spanSegJSON{
			Site: cluster.SpanSiteName(s.Site),
			Kind: simnet.SpanKindName(s.Kind),
			US:   s.Dur,
		}
	}
	return out
}

// WriteSpans writes the sampled span dumps as JSON lines, recorders in
// (replicate, unit) order and each recorder's dumps in fold (simulated
// time) order — byte-identical at any worker count.
func (c *Collector) WriteSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.sorted() {
		if r.spans == nil {
			continue
		}
		for _, d := range r.spans.Dumps() {
			row := spanDumpJSON{
				Replicate:   r.replicate,
				Unit:        r.unit,
				TUS:         d.T,
				Interaction: d.Iter.Slug(),
				OK:          d.OK,
				TotalUS:     d.Total,
				Spans:       segsJSON(d.Segs),
			}
			if len(d.Kids) > 0 {
				row.Children = make([]spanKidJSON, len(d.Kids))
				for i, k := range d.Kids {
					row.Children[i] = spanKidJSON{
						OffsetUS: k.Offset,
						TotalUS:  k.Total,
						Critical: k.Critical,
						OK:       k.OK,
						Cache:    websim.ObjCacheName(k.Cache),
						Spans:    segsJSON(k.Segs),
					}
				}
			}
			line, err := json.Marshal(row)
			if err != nil {
				return err
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// latencyHeader is the latency.csv histogram schema. Times are integer
// span ticks (microseconds of simulated time).
const latencyHeader = "replicate,unit,interaction,tier,kind,count,mean_us,p50_us,p95_us,p99_us,max_us\n"

// attributionHeader heads the second section of latency.csv: windowed
// queue/service attribution per tier group, one window per tuning
// iteration, with the share of the window's total queue-wait. The note
// column carries the trace events (reconfiguration moves, restarts) that
// landed in the window.
const attributionHeader = "replicate,unit,iter,t,tier,queue_us,service_us,queue_share,note\n"

// writeHistRow emits one histogram CSV row; empty histograms are skipped.
func writeHistRow(bw *bufio.Writer, replicate int, unit, interaction, tier, kind string, h *stats.LatencyHist) error {
	if h.N() == 0 {
		return nil
	}
	_, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%d,%.1f,%d,%d,%d,%d\n",
		replicate, unit, interaction, tier, kind,
		h.N(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	return err
}

// kindNames orders the two segment kinds for emission.
var kindNames = [2]string{simnet.SpanQueue: "queue", simnet.SpanService: "service"}

// WriteLatency writes the per-(interaction, tier, kind) latency histograms
// followed by the windowed attribution table, recorders in (replicate,
// unit) order. The "all" interaction rows merge every interaction's
// histogram; the tier "total" kind "response" rows are end-to-end response
// times of successful pages.
func (c *Collector) WriteLatency(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(latencyHeader); err != nil {
		return err
	}
	for _, r := range c.sorted() {
		k := r.spans
		if k == nil {
			continue
		}
		// Merged-across-interactions block first.
		var all stats.LatencyHist
		for it := 0; it < tpcw.NumInteractions; it++ {
			all.Merge(k.RespHist(tpcw.Interaction(it)))
		}
		if err := writeHistRow(bw, r.replicate, r.unit, "all", "total", "response", &all); err != nil {
			return err
		}
		for g := 0; g < cluster.NumSpanGroups; g++ {
			for kind := range kindNames {
				var m stats.LatencyHist
				for it := 0; it < tpcw.NumInteractions; it++ {
					m.Merge(k.Hist(tpcw.Interaction(it), uint8(g), uint8(kind)))
				}
				if err := writeHistRow(bw, r.replicate, r.unit, "all",
					cluster.SpanGroupName(uint8(g)), kindNames[kind], &m); err != nil {
					return err
				}
			}
		}
		// Then per interaction, in Table 1 order.
		for it := 0; it < tpcw.NumInteractions; it++ {
			slug := tpcw.Interaction(it).Slug()
			if err := writeHistRow(bw, r.replicate, r.unit, slug, "total", "response",
				k.RespHist(tpcw.Interaction(it))); err != nil {
				return err
			}
			for g := 0; g < cluster.NumSpanGroups; g++ {
				for kind := range kindNames {
					if err := writeHistRow(bw, r.replicate, r.unit, slug,
						cluster.SpanGroupName(uint8(g)), kindNames[kind],
						k.Hist(tpcw.Interaction(it), uint8(g), uint8(kind))); err != nil {
						return err
					}
				}
			}
		}
	}
	if _, err := bw.WriteString("# attribution\n"); err != nil {
		return err
	}
	if _, err := bw.WriteString(attributionHeader); err != nil {
		return err
	}
	for _, r := range c.sorted() {
		k := r.spans
		if k == nil {
			continue
		}
		notes := iterNotes(r.events)
		for _, sn := range k.Snapshots() {
			var totalQueue int64
			for g := 0; g < cluster.NumSpanGroups; g++ {
				totalQueue += sn.Queue[g]
			}
			for g := 0; g < cluster.NumSpanGroups; g++ {
				if sn.Queue[g] == 0 && sn.Svc[g] == 0 {
					continue
				}
				share := 0.0
				if totalQueue > 0 {
					share = float64(sn.Queue[g]) / float64(totalQueue)
				}
				_, err := fmt.Fprintf(bw, "%d,%s,%d,%s,%s,%d,%d,%.4f,%s\n",
					r.replicate, r.unit, sn.Iter,
					strconv.FormatFloat(sn.T, 'f', 3, 64),
					cluster.SpanGroupName(uint8(g)),
					sn.Queue[g], sn.Svc[g], share, notes[sn.Iter])
				if err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// iterNotes joins each iteration's non-step trace events ("move:...",
// "restart") into the note shown on that iteration's attribution rows, so
// a reader sees which reconfiguration landed in the window.
func iterNotes(events []Event) map[int]string {
	notes := make(map[int]string)
	for _, ev := range events {
		if ev.Kind == "step" {
			continue
		}
		note := ev.Kind
		if ev.Move != "" {
			note += ":" + strings.ReplaceAll(ev.Move, ",", ";")
		}
		if prev := notes[ev.Iter]; prev != "" {
			note = prev + " " + note
		}
		notes[ev.Iter] = note
	}
	return notes
}

// WriteLatencyRollup writes the human-readable bottleneck summary: per
// unit, tiers ranked by their share of total queue-wait, with pages folded
// and windows/moves counted — the "why did the simplex move" answer at a
// glance.
func (c *Collector) WriteLatencyRollup(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.sorted() {
		k := r.spans
		if k == nil {
			continue
		}
		queue := k.QueueTotals()
		var totalQueue int64
		for _, q := range queue {
			totalQueue += q
		}
		type rank struct {
			g uint8
			q int64
		}
		ranks := make([]rank, 0, cluster.NumSpanGroups)
		for g := range queue {
			if queue[g] > 0 {
				ranks = append(ranks, rank{uint8(g), queue[g]})
			}
		}
		sort.SliceStable(ranks, func(i, j int) bool { return ranks[i].q > ranks[j].q })
		moves := 0
		for _, ev := range r.events {
			if ev.Kind == "move" {
				moves++
			}
		}
		fmt.Fprintf(bw, "replicate %d unit %s: %d pages, %d windows, %d moves; queue-wait",
			r.replicate, r.unit, k.Pages(), len(k.Snapshots()), moves)
		if totalQueue == 0 {
			fmt.Fprintf(bw, " none\n")
			continue
		}
		for _, rk := range ranks {
			fmt.Fprintf(bw, " %s %.1f%%", cluster.SpanGroupName(rk.g),
				100*float64(rk.q)/float64(totalQueue))
		}
		fmt.Fprintf(bw, "\n")
	}
	return bw.Flush()
}

// TopQueueGroup returns the name of the tier group holding the largest
// share of a unit's total queue-wait across every replicate of that unit,
// or "" if nothing was attributed — the bottleneck the attribution report
// names. Exposed for tests and programmatic assertions.
func (c *Collector) TopQueueGroup(unit string) string {
	var totals [cluster.NumSpanGroups]int64
	for _, r := range c.sorted() {
		if r.unit != unit || r.spans == nil {
			continue
		}
		q := r.spans.QueueTotals()
		for g := range q {
			totals[g] += q[g]
		}
	}
	best, bestG := int64(0), -1
	for g, q := range totals {
		if q > best {
			best, bestG = q, g
		}
	}
	if bestG < 0 {
		return ""
	}
	return cluster.SpanGroupName(uint8(bestG))
}
