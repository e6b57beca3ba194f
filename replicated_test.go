package webharmony

import (
	"bytes"
	"strings"
	"testing"

	"webharmony/internal/stats"
)

// TestFigure4ReplicatedFacade runs a miniature replicated Figure 4
// through the public API, then the printer and the CSV exporter.
func TestFigure4ReplicatedFacade(t *testing.T) {
	res := RunFigure4Replicated(TinyLab(), 2, 1, 2, TunerOptions{Seed: 3})
	if res.Replicates != 2 {
		t.Fatalf("Replicates = %d, want 2", res.Replicates)
	}
	var buf bytes.Buffer
	PrintFigure4Replicated(&buf, res)
	out := buf.String()
	if !strings.Contains(out, "best-of-browsing") || !strings.Contains(out, "95% CI") {
		t.Fatalf("replicated Figure 4 report: %s", out)
	}
	buf.Reset()
	if err := WriteFigure4ReplicatedCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean_wips") || !strings.Contains(buf.String(), "ci95_wips") {
		t.Fatalf("replicated Figure 4 CSV:\n%s", buf.String())
	}
}

// TestFigure7ReplicatedFacade runs a miniature replicated reconfiguration
// experiment through the public API; the printer's moved branch is
// covered separately with a synthetic result below since the tiny run
// need not trigger a move.
func TestFigure7ReplicatedFacade(t *testing.T) {
	fo := Figure7a()
	fo.Total = 4
	fo.SwitchAt = 1
	fo.CheckAt = 2
	cfg := TinyLab()
	cfg.Browsers = 300
	cfg.Warm = 4
	res := RunFigure7Replicated(cfg, fo, 2)
	if len(res.WIPS) != fo.Total || len(res.Decisions) != 2 {
		t.Fatalf("got %d iteration summaries / %d decisions, want %d / 2",
			len(res.WIPS), len(res.Decisions), fo.Total)
	}
	var buf bytes.Buffer
	PrintFigure7Replicated(&buf, res)
	if !strings.Contains(buf.String(), "replicates that reconfigured") {
		t.Fatalf("replicated Figure 7 report: %s", buf.String())
	}
	buf.Reset()
	if err := WriteFigure7ReplicatedCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "iteration,mean_wips,sd_wips,ci95_wips") {
		t.Fatalf("replicated Figure 7 CSV:\n%s", buf.String())
	}
}

func TestPrintFigure7ReplicatedMovedBranch(t *testing.T) {
	res := &Figure7Replicated{
		Replicates:  2,
		WIPS:        []stats.Summary{stats.Summarize([]float64{100, 110})},
		Decisions:   []string{"", "proxy node 3 -> application tier"},
		Moved:       1,
		Before:      stats.Summarize([]float64{100}),
		After:       stats.Summarize([]float64{160}),
		Improvement: stats.Summarize([]float64{0.6}),
	}
	var buf bytes.Buffer
	PrintFigure7Replicated(&buf, res)
	out := buf.String()
	for _, want := range []string{
		"replicates that reconfigured: 1 of 2",
		"replicate 1: proxy node 3 -> application tier",
		"paper: +62%/+70%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("moved-branch report missing %q:\n%s", want, out)
		}
	}
}
