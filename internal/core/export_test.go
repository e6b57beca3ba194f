package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"webharmony/internal/reconfig"
	"webharmony/internal/tpcw"
)

func TestWriteJSON(t *testing.T) {
	res := &Table4Result{Rows: []Table4Row{{Method: "none", WIPS: 110.4, StdDev: 2.1}}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back Table4Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || back.Rows[0].WIPS != 110.4 {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "wips", []float64{1.5, 2.25}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][1] != "wips" || rows[2][1] != "2.25" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWriteFigure5CSV(t *testing.T) {
	res := &Figure5Result{
		WIPS:     []float64{100, 90},
		Workload: []tpcw.Workload{tpcw.Browsing, tpcw.Ordering},
	}
	var buf bytes.Buffer
	if err := WriteFigure5CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "browsing") || !strings.Contains(buf.String(), "ordering") {
		t.Fatalf("csv: %s", buf.String())
	}
}

func TestWriteFigure7CSV(t *testing.T) {
	res := &Figure7Result{
		WIPS:    []float64{100, 160},
		Layouts: []string{"4/2/1", "3/3/1"},
		MovedAt: 0,
		Moved:   true,
		Decision: reconfig.Decision{
			Node: 2, From: 0, To: 1, Overloaded: 4,
		},
	}
	var buf bytes.Buffer
	if err := WriteFigure7CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "move node2") {
		t.Fatalf("move event missing: %s", out)
	}
	if !strings.Contains(out, "3/3/1") {
		t.Fatalf("layout missing: %s", out)
	}
}

func TestWriteFigure4CSV(t *testing.T) {
	res := &Figure4Result{}
	res.Default = [3]float64{1, 2, 3}
	res.Matrix[tpcw.Ordering] = [3]float64{4, 5, 6}
	var buf bytes.Buffer
	if err := WriteFigure4CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // header + default + 3 best-of rows
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[4][0] != "best-of-ordering" || rows[4][3] != "6" {
		t.Fatalf("ordering row = %v", rows[4])
	}
}

func TestWriteTable4CSV(t *testing.T) {
	res := &Table4Result{Rows: []Table4Row{
		{Method: "duplication", WIPS: 133.7, StdDev: 29.5, Improvement: 0.212, Iterations: 33},
	}}
	var buf bytes.Buffer
	if err := WriteTable4CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "duplication,133.7,29.5,0.212,33") {
		t.Fatalf("csv: %s", buf.String())
	}
}
