// Package telemetry is the deterministic observability layer of the
// reproduction: tuner step traces (one JSON line per simplex move,
// reconfiguration or search restart) and per-tier metrics timeseries
// (utilization, queue depths, cache hit ratio, pool occupancy sampled on
// the simulated clock).
//
// Determinism is the design constraint. Every experiment unit (one lab)
// owns a Recorder registered under a (replicate, unit-name) key; appends
// within a unit are single-threaded (the unit's worker), and the writers
// emit recorders sorted by key, so the exported bytes are identical at any
// worker count — the same contract core.ForEach gives result slices.
// Timestamps are simulated seconds, never wall-clock, so reruns are
// byte-stable too. A nil *Recorder is safe to use and records nothing,
// which is how the layer costs nothing when disabled.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"webharmony/internal/simnet"
	"webharmony/internal/websim"
)

// Event is one trace record: a tuner step, a reconfiguration move or a
// search restart. Config maps parameter names to the evaluated values;
// encoding/json sorts the keys, keeping the line byte-stable.
type Event struct {
	Replicate int              `json:"replicate"`
	Unit      string           `json:"unit"`
	Session   string           `json:"session,omitempty"`
	T         float64          `json:"t"`
	Iter      int              `json:"iter"`
	Kind      string           `json:"kind"` // "step", "restart" or "move"
	Move      string           `json:"move,omitempty"`
	Config    map[string]int64 `json:"config,omitempty"`
	Cost      float64          `json:"cost"`
	Best      float64          `json:"best"`
}

// Sample is one per-tier metrics observation covering the interval since
// the previous sample: mean resource utilization across the tier's nodes,
// instantaneous queued jobs, the proxy tier's cache hit ratio over the
// interval, and the tier's pool occupancy (app-server threads in use, DB
// connections in use) with the matching wait-queue length.
type Sample struct {
	Replicate int
	Unit      string
	T         float64
	Tier      string
	Nodes     int
	CPU       float64
	Memory    float64
	Net       float64
	Disk      float64
	Queue     int
	HitRatio  float64
	PoolBusy  int
	PoolWait  int
}

// Recorder accumulates the events and samples of one experiment unit.
// Appends must come from a single goroutine (the unit's worker); a nil
// receiver records nothing, so instrumented code needs no nil checks
// beyond the one it already pays to find the recorder.
type Recorder struct {
	replicate int
	unit      string
	events    []Event
	samples   []Sample
	simProf   *simnet.Profile
	spans     *websim.SpanSink
}

// Event appends a trace event, stamping the recorder's replicate and unit.
func (r *Recorder) Event(ev Event) {
	if r == nil {
		return
	}
	ev.Replicate = r.replicate
	ev.Unit = r.unit
	r.events = append(r.events, ev)
}

// Sample appends a metrics sample, stamping replicate and unit.
func (r *Recorder) Sample(s Sample) {
	if r == nil {
		return
	}
	s.Replicate = r.replicate
	s.Unit = r.unit
	r.samples = append(r.samples, s)
}

// Events returns the recorded trace events. Callers must not modify it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// AttachSimProfile associates the unit's event-loop profile with the
// recorder so the collector can merge profiles across units in the same
// fixed (replicate, unit) order it uses for traces and metrics.
func (r *Recorder) AttachSimProfile(p *simnet.Profile) {
	if r == nil {
		return
	}
	r.simProf = p
}

// SimProfile returns the attached event-loop profile, if any.
func (r *Recorder) SimProfile() *simnet.Profile {
	if r == nil {
		return nil
	}
	return r.simProf
}

type recorderKey struct {
	replicate int
	unit      string
}

// Collector owns the recorders of one experiment run. Recorder
// registration is safe to call from the worker pool; the writers must run
// after the experiments finish (the CLI writes once at exit).
type Collector struct {
	mu   sync.Mutex
	recs map[recorderKey]*Recorder
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{recs: make(map[recorderKey]*Recorder)}
}

// Recorder registers and returns the recorder for (replicate, unit). Each
// key may be claimed once; a duplicate claim panics, because two units
// appending to one recorder would race and break the determinism contract
// — it means a runner failed to derive distinct unit names for its labs.
func (c *Collector) Recorder(replicate int, unit string) *Recorder {
	k := recorderKey{replicate: replicate, unit: unit}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.recs[k]; dup {
		panic(fmt.Sprintf("telemetry: duplicate recorder %d/%q", replicate, unit))
	}
	r := &Recorder{replicate: replicate, unit: unit}
	c.recs[k] = r
	return r
}

// sorted returns the recorders ordered by (replicate, unit) — the fixed
// emission order that makes the exported bytes independent of the order
// the worker pool happened to register them in.
func (c *Collector) sorted() []*Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Recorder, 0, len(c.recs))
	for _, r := range c.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].replicate != out[j].replicate {
			return out[i].replicate < out[j].replicate
		}
		return out[i].unit < out[j].unit
	})
	return out
}

// WriteTrace writes every recorded event as JSON lines, recorders in
// (replicate, unit) order and each recorder's events in record order.
func (c *Collector) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.sorted() {
		for _, ev := range r.events {
			line, err := json.Marshal(ev)
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

// metricsHeader is the long-form metrics CSV schema.
const metricsHeader = "replicate,unit,t,tier,nodes,cpu,memory,net,disk,queue,hit_ratio,pool_busy,pool_wait\n"

// WriteMetrics writes every recorded sample as a long-form CSV, recorders
// in (replicate, unit) order and each recorder's samples in record order.
// Ratios use fixed four-decimal precision and times three decimals, so the
// output is byte-stable and diff-friendly.
func (c *Collector) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(metricsHeader); err != nil {
		return err
	}
	for _, r := range c.sorted() {
		for _, s := range r.samples {
			_, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%d,%.4f,%.4f,%.4f,%.4f,%d,%.4f,%d,%d\n",
				s.Replicate, s.Unit,
				strconv.FormatFloat(s.T, 'f', 3, 64), s.Tier, s.Nodes,
				s.CPU, s.Memory, s.Net, s.Disk,
				s.Queue, s.HitRatio, s.PoolBusy, s.PoolWait)
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MergedSimProfile merges every recorder's event-loop profile into one,
// in (replicate, unit) order. Per-stack weights are float sums, so the
// fixed merge order is what makes the merged profile — and everything
// written from it — byte-identical at any worker count. Returns an empty
// profile if no recorder attached one.
func (c *Collector) MergedSimProfile() *simnet.Profile {
	merged := simnet.NewProfile()
	for _, r := range c.sorted() {
		merged.Merge(r.simProf)
	}
	return merged
}

// WriteSimProfile writes the merged event-loop profile in folded-stack
// format (flamegraph.pl / speedscope input).
func (c *Collector) WriteSimProfile(w io.Writer) error {
	return c.MergedSimProfile().WriteFolded(w)
}

// WriteSimProfileRollup writes the merged profile's human-readable rollup.
func (c *Collector) WriteSimProfileRollup(w io.Writer) error {
	return c.MergedSimProfile().WriteRollup(w)
}

// Empty reports whether the collector recorded nothing at all.
func (c *Collector) Empty() bool {
	for _, r := range c.sorted() {
		if len(r.events) > 0 || len(r.samples) > 0 || !r.simProf.Empty() {
			return false
		}
		if r.spans != nil && r.spans.Pages() > 0 {
			return false
		}
	}
	return true
}
