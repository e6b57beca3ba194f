package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/rng"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// spanFixture builds a collector with one span-recording unit ("unit-a")
// driven through a few hundred pages and one attribution snapshot, and
// returns it with that unit's sink.
func spanFixture(t *testing.T) (*Collector, *websim.SpanSink) {
	t.Helper()
	c := NewCollector()
	rec := c.Recorder(0, "unit-a")
	// A second, spanless recorder: the writers must skip it cleanly.
	c.Recorder(1, "unit-b").Event(Event{T: 2, Iter: 1, Kind: "step"})
	sys := websim.New(websim.Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 9})
	sink := websim.NewSpanSink(50)
	sys.SetSpanSink(sink)
	rec.AttachSpans(sink)
	rec.Event(Event{T: 1, Iter: 1, Kind: "move", Move: "proxy->app"})

	gen := tpcw.NewPageGen(sys.Catalog, rng.New(4))
	done := func(bool) {}
	for i := 0; i < 600; i++ {
		sys.Request(gen.Page(tpcw.Interaction(i%tpcw.NumInteractions), i%5), done)
		if i%16 == 15 {
			sys.Eng.Run()
		}
	}
	sys.Eng.Run()
	sink.Snapshot(1, sys.Eng.Now())
	return c, sink
}

func TestWriteSpansJSONL(t *testing.T) {
	c, _ := spanFixture(t)
	var buf bytes.Buffer
	if err := c.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("got %d span lines, want several (sample every 50 of 600 pages)", len(lines))
	}
	for i, line := range lines {
		var row struct {
			Replicate   int    `json:"replicate"`
			Unit        string `json:"unit"`
			Interaction string `json:"interaction"`
			TotalUS     int64  `json:"total_us"`
			Spans       []struct {
				Site string `json:"site"`
				Kind string `json:"kind"`
				US   int64  `json:"us"`
			} `json:"spans"`
			Children []struct {
				TotalUS  int64 `json:"total_us"`
				Critical bool  `json:"critical"`
			} `json:"children"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if row.Unit != "unit-a" || row.Interaction == "" || row.TotalUS <= 0 {
			t.Errorf("line %d: malformed row %q", i, line)
		}
		for _, sp := range row.Spans {
			if sp.Site == "" || (sp.Kind != "queue" && sp.Kind != "service") || sp.US <= 0 {
				t.Errorf("line %d: malformed segment %+v", i, sp)
			}
		}
	}
}

func TestWriteLatencyCSV(t *testing.T) {
	c, _ := spanFixture(t)
	var buf bytes.Buffer
	if err := c.WriteLatency(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "replicate,unit,interaction,tier,kind,count,mean_us,p50_us,p95_us,p99_us,max_us\n") {
		t.Fatalf("unexpected header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	for _, want := range []string{
		",all,total,response,",
		",all,app,service,",
		",home,total,response,",
		"# attribution\n",
		"replicate,unit,iter,t,tier,queue_us,service_us,queue_share,note\n",
		"move:proxy->app", // the iteration-1 move lands in the window's note
	} {
		if !strings.Contains(out, want) {
			t.Errorf("latency output missing %q", want)
		}
	}
	// Deterministic: a second write emits identical bytes.
	var again bytes.Buffer
	if err := c.WriteLatency(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("WriteLatency is not byte-stable across calls")
	}
}

func TestWriteLatencyRollupAndTopGroup(t *testing.T) {
	c, sink := spanFixture(t)
	var buf bytes.Buffer
	if err := c.WriteLatencyRollup(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "unit unit-a:") || !strings.Contains(out, "queue-wait") {
		t.Errorf("rollup output malformed: %q", out)
	}
	if !strings.Contains(out, "1 moves") {
		t.Errorf("rollup did not count the move event: %q", out)
	}
	// The first group ranked on the unit's line is its largest queue-wait
	// total: the bottleneck the report names.
	queue := sink.QueueTotals()
	top := 0
	for g := range queue {
		if queue[g] > queue[top] {
			top = g
		}
	}
	if queue[top] == 0 {
		t.Fatal("fixture attributed no queue-wait")
	}
	want := "; queue-wait " + cluster.SpanGroupName(uint8(top)) + " "
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "unit unit-a:") {
			line = l
		}
	}
	if !strings.Contains(line, want) {
		t.Errorf("rollup line %q does not rank %s first (queue totals %v)",
			line, cluster.SpanGroupName(uint8(top)), queue)
	}
	// Only units with a sink get a line: not the spanless unit-b, and no
	// unit that was never registered.
	for _, absent := range []string{"unit unit-b", "unit no-such-unit"} {
		if strings.Contains(out, absent) {
			t.Errorf("rollup has a line for %q: %q", absent, out)
		}
	}
}

func TestSpanAccessorsNilSafe(t *testing.T) {
	var r *Recorder
	r.AttachSpans(websim.NewSpanSink(0)) // must not panic
	if r.Spans() != nil {
		t.Error("nil recorder returned a sink")
	}
	c := NewCollector()
	rec := c.Recorder(0, "u")
	if rec.Spans() != nil {
		t.Error("fresh recorder has a sink before AttachSpans")
	}
	sink := websim.NewSpanSink(0)
	rec.AttachSpans(sink)
	if rec.Spans() != sink {
		t.Error("Spans() did not return the attached sink")
	}
	var buf bytes.Buffer
	if err := c.WriteLatencyRollup(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "replicate 0 unit u: 0 pages, 0 windows, 0 moves; queue-wait none\n"; buf.String() != want {
		t.Errorf("rollup with an empty sink = %q, want %q", buf.String(), want)
	}
}

func TestSpansCountTowardEmpty(t *testing.T) {
	c := NewCollector()
	rec := c.Recorder(0, "u")
	if !c.Empty() {
		t.Fatal("fresh collector not empty")
	}
	sink := websim.NewSpanSink(0)
	rec.AttachSpans(sink)
	if !c.Empty() {
		t.Fatal("collector with an unused sink should still be empty")
	}
	sys := websim.New(websim.Options{ProxyNodes: 1, AppNodes: 1, DBNodes: 1, Scale: 200, Seed: 2})
	sys.SetSpanSink(sink)
	done := func(bool) {}
	gen := tpcw.NewPageGen(sys.Catalog, rng.New(3))
	sys.Request(gen.Page(tpcw.Home, 0), done)
	sys.Eng.Run()
	if c.Empty() {
		t.Error("collector with folded pages reported empty")
	}
}
