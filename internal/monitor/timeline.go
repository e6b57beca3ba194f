package monitor

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"webharmony/internal/cluster"
	"webharmony/internal/simnet"
)

// TimelinePoint is one periodic utilization sample of one node.
type TimelinePoint struct {
	Time float64
	Node int
	Tier cluster.Tier
	Util [cluster.NumResources]float64
}

// Timeline periodically samples every node's utilization while the
// simulation runs — the data behind Figure 7-style utilization plots
// ("CPU utilization is always close to 100%", "some proxy servers are
// idling"). Sampling is driven by the simulated clock.
type Timeline struct {
	eng      *simnet.Engine
	cl       *cluster.Cluster
	interval float64
	points   []TimelinePoint
	snaps    map[int]cluster.UtilSnapshot
	running  bool
	gen      int // bumped by Start, so a sample chain left by Stop stays dead
}

// NewTimeline creates a recorder sampling every interval simulated
// seconds. Start must be called to begin recording.
func NewTimeline(eng *simnet.Engine, cl *cluster.Cluster, interval float64) *Timeline {
	if interval <= 0 {
		panic("monitor: timeline interval must be positive")
	}
	return &Timeline{eng: eng, cl: cl, interval: interval, snaps: make(map[int]cluster.UtilSnapshot)}
}

// Start begins sampling; each sample covers the interval since the
// previous one.
func (t *Timeline) Start() {
	if t.running {
		return
	}
	t.running = true
	t.gen++
	for _, n := range t.cl.Nodes() {
		t.snaps[n.ID()] = n.Snapshot()
	}
	t.schedule()
}

func (t *Timeline) schedule() {
	gen := t.gen
	t.eng.Schedule(t.interval, func() {
		if !t.running || gen != t.gen {
			return
		}
		t.sample()
		t.schedule()
	})
}

func (t *Timeline) sample() {
	now := t.eng.Now()
	for _, n := range t.cl.Nodes() {
		snap, ok := t.snaps[n.ID()]
		if !ok {
			t.snaps[n.ID()] = n.Snapshot()
			continue
		}
		t.points = append(t.points, TimelinePoint{
			Time: now,
			Node: n.ID(),
			Tier: n.Tier(),
			Util: n.Utilization(snap),
		})
		t.snaps[n.ID()] = n.Snapshot()
	}
}

// Stop halts sampling; recorded points remain available. The pending
// sample event still fires, and returns without sampling.
func (t *Timeline) Stop() { t.running = false }

// Points returns the recorded samples in time order.
func (t *Timeline) Points() []TimelinePoint { return t.points }

// WriteCSV writes the timeline as time,node,tier,cpu,memory,net,disk rows.
func (t *Timeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "node", "tier", "cpu", "memory", "net", "disk"}); err != nil {
		return err
	}
	for _, p := range t.points {
		rec := []string{
			strconv.FormatFloat(p.Time, 'f', 3, 64),
			strconv.Itoa(p.Node),
			p.Tier.String(),
			fmt.Sprintf("%.4f", p.Util[cluster.ResCPU]),
			fmt.Sprintf("%.4f", p.Util[cluster.ResMemory]),
			fmt.Sprintf("%.4f", p.Util[cluster.ResNet]),
			fmt.Sprintf("%.4f", p.Util[cluster.ResDisk]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
