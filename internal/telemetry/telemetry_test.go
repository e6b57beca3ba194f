package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Event(Event{Kind: "step"})
	r.Sample(Sample{Tier: "app"})
	if r.Events() != nil {
		t.Fatal("nil recorder should report no data")
	}
}

func TestRecorderStampsIdentity(t *testing.T) {
	c := NewCollector()
	r := c.Recorder(3, "unitA")
	r.Event(Event{Kind: "step", Replicate: 99, Unit: "spoofed"})
	r.Sample(Sample{Tier: "db", Replicate: 99, Unit: "spoofed"})
	if ev := r.Events()[0]; ev.Replicate != 3 || ev.Unit != "unitA" {
		t.Fatalf("event identity = %d/%q, want 3/unitA", ev.Replicate, ev.Unit)
	}
	if s := r.samples[0]; s.Replicate != 3 || s.Unit != "unitA" {
		t.Fatalf("sample identity = %d/%q, want 3/unitA", s.Replicate, s.Unit)
	}
}

func TestDuplicateRecorderPanics(t *testing.T) {
	c := NewCollector()
	c.Recorder(0, "u")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Recorder(0, u) should panic")
		}
	}()
	c.Recorder(0, "u")
}

// TestWriteOrderIndependentOfRegistration pins the determinism contract:
// the exported bytes depend only on the recorded data, never on the order
// the worker pool happened to register recorders in.
func TestWriteOrderIndependentOfRegistration(t *testing.T) {
	build := func(order []int) *Collector {
		c := NewCollector()
		keys := [][2]interface{}{{0, "a"}, {0, "b"}, {1, "a"}}
		recs := make([]*Recorder, len(keys))
		for _, i := range order {
			recs[i] = c.Recorder(keys[i][0].(int), keys[i][1].(string))
		}
		for i, r := range recs {
			r.Event(Event{Kind: "step", Iter: i, Cost: float64(i)})
			r.Sample(Sample{T: float64(i), Tier: "app", Nodes: 1})
		}
		return c
	}
	var tr1, tr2, m1, m2 bytes.Buffer
	c1 := build([]int{0, 1, 2})
	c2 := build([]int{2, 0, 1})
	if err := c1.WriteTrace(&tr1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteTrace(&tr2); err != nil {
		t.Fatal(err)
	}
	if tr1.String() != tr2.String() {
		t.Error("trace bytes depend on registration order")
	}
	if err := c1.WriteMetrics(&m1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteMetrics(&m2); err != nil {
		t.Fatal(err)
	}
	if m1.String() != m2.String() {
		t.Error("metrics bytes depend on registration order")
	}

	lines := strings.Split(strings.TrimSpace(tr1.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d trace lines, want 3", len(lines))
	}
	for i, want := range []string{`"unit":"a"`, `"unit":"b"`, `"unit":"a"`} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("trace line %d = %s, want it to contain %s", i, lines[i], want)
		}
	}
}

func TestWriteMetricsHeaderAndFormat(t *testing.T) {
	c := NewCollector()
	r := c.Recorder(0, "u")
	r.Sample(Sample{
		T: 5.5, Tier: "proxy", Nodes: 2,
		CPU: 0.5, Memory: 0.25, Net: 0.125, Disk: 0,
		Queue: 7, HitRatio: 0.75, PoolBusy: 3, PoolWait: 1,
	})
	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := metricsHeader + "0,u,5.500,proxy,2,0.5000,0.2500,0.1250,0.0000,7,0.7500,3,1\n"
	if buf.String() != want {
		t.Fatalf("metrics CSV:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestEmpty(t *testing.T) {
	c := NewCollector()
	if !c.Empty() {
		t.Fatal("fresh collector should be empty")
	}
	c.Recorder(0, "u")
	if !c.Empty() {
		t.Fatal("collector with a silent recorder should be empty")
	}
	c.Recorder(0, "v").Event(Event{Kind: "step"})
	if c.Empty() {
		t.Fatal("collector with an event should not be empty")
	}
}
