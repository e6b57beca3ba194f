package monitor

import (
	"bytes"
	"strings"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/simnet"
)

func TestTimelineSamples(t *testing.T) {
	eng := &simnet.Engine{}
	cl := cluster.New(eng, cluster.DefaultHardware(), 1, 1, 1)
	tl := NewTimeline(eng, cl, 5)
	tl.Start()
	// Keep node 0's CPU fully busy for the whole run.
	cl.Node(0).CPU().Submit(1000, nil)
	cl.Node(0).CPU().Submit(1000, nil)
	eng.RunUntil(26)
	tl.Stop()
	pts := tl.Points()
	// 5 sampling instants × 3 nodes.
	if len(pts) != 15 {
		t.Fatalf("points = %d, want 15", len(pts))
	}
	var times []float64
	for _, p := range pts {
		switch p.Node {
		case 0:
			times = append(times, p.Time)
			if p.Util[cluster.ResCPU] < 0.99 {
				t.Fatalf("t=%v: node0 CPU %v, want ~1", p.Time, p.Util[cluster.ResCPU])
			}
		case 1:
			if p.Util[cluster.ResCPU] != 0 {
				t.Fatal("idle node shows load")
			}
		}
	}
	if len(times) != 5 {
		t.Fatalf("node series length = %d", len(times))
	}
	if times[0] != 5 || times[4] != 25 {
		t.Fatalf("sample times = %v", times)
	}
}

func TestTimelineStopsSampling(t *testing.T) {
	eng := &simnet.Engine{}
	cl := cluster.New(eng, cluster.DefaultHardware(), 1, 1, 1)
	tl := NewTimeline(eng, cl, 2)
	tl.Start()
	eng.RunUntil(5)
	tl.Stop()
	n := len(tl.Points())
	// Keep the engine alive with an unrelated event.
	eng.Schedule(10, func() {})
	eng.RunUntil(20)
	if len(tl.Points()) != n {
		t.Fatal("sampling continued after Stop")
	}
	tl.Start() // restart works
	eng.Schedule(10, func() {})
	eng.RunUntil(30)
	if len(tl.Points()) == n {
		t.Fatal("sampling did not resume after restart")
	}
}

func TestTimelineWriteCSV(t *testing.T) {
	eng := &simnet.Engine{}
	cl := cluster.New(eng, cluster.DefaultHardware(), 1, 1, 1)
	tl := NewTimeline(eng, cl, 1)
	tl.Start()
	eng.RunUntil(3)
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time,node,tier,cpu,memory,net,disk") {
		t.Fatalf("header wrong: %s", out)
	}
	if !strings.Contains(out, "proxy") || !strings.Contains(out, "db") {
		t.Fatalf("tiers missing: %s", out)
	}
}

func TestTimelinePanicsOnBadInterval(t *testing.T) {
	eng := &simnet.Engine{}
	cl := cluster.New(eng, cluster.DefaultHardware(), 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTimeline(eng, cl, 0)
}

func TestTimelineDoubleStartIdempotent(t *testing.T) {
	eng := &simnet.Engine{}
	cl := cluster.New(eng, cluster.DefaultHardware(), 1, 1, 1)
	tl := NewTimeline(eng, cl, 1)
	tl.Start()
	tl.Start()
	eng.RunUntil(2.5)
	if len(tl.Points()) != 6 { // 2 instants × 3 nodes
		t.Fatalf("points = %d, want 6 (double Start must not double-sample)", len(tl.Points()))
	}
}
