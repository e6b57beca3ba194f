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
func writeHistRow(bw *bufio.Writer, replicate int, unit, interaction, tier, kind string, row *websim.LatencyRow) error {
	if row.N == 0 {
		return nil
	}
	_, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%d,%.1f,%d,%d,%d,%d\n",
		replicate, unit, interaction, tier, kind,
		row.N, row.Mean(), row.P50, row.P95, row.P99, row.Max)
	return err
}

// kindNames orders the two segment kinds for emission.
var kindNames = [2]string{simnet.SpanQueue: "queue", simnet.SpanService: "service"}

// writeLatencyBlock emits one interaction's rows: the end-to-end response
// row, then one row per (tier group, kind).
func writeLatencyBlock(bw *bufio.Writer, r *Recorder, interaction string, b *websim.LatencyBlock) error {
	if err := writeHistRow(bw, r.replicate, r.unit, interaction, "total", "response", &b.Resp); err != nil {
		return err
	}
	for g := range b.Cells {
		for kind := range b.Cells[g] {
			if err := writeHistRow(bw, r.replicate, r.unit, interaction,
				cluster.SpanGroupName(uint8(g)), kindNames[kind], &b.Cells[g][kind]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteLatency writes the per-(interaction, tier, kind) latency histograms
// followed by the windowed attribution table, recorders in (replicate,
// unit) order. The "all" interaction rows merge every interaction's
// histogram; the tier "total" kind "response" rows are end-to-end response
// times of successful pages. Reading a sink freezes it (SpanSink.Latency),
// so WriteLatency must run after the unit's simulation is done.
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
		// Merged-across-interactions block first, then per interaction in
		// Table 1 order.
		lat := k.Latency()
		if err := writeLatencyBlock(bw, r, "all", &lat.All); err != nil {
			return err
		}
		for it := range lat.Per {
			if err := writeLatencyBlock(bw, r, tpcw.Interaction(it).Slug(), &lat.Per[it]); err != nil {
				return err
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
