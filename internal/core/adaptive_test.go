package core

import (
	"testing"

	"webharmony/internal/harmony"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// TestRunAdaptiveTunesAndReconfigures runs the full §IV loop on the
// Figure 7(b)-shaped imbalance (2 proxies / 4 apps under browsing): the
// parameter tuner runs every iteration and the reconfiguration check,
// firing at its lower frequency, must eventually move an application node
// into the proxy tier and raise throughput.
func TestRunAdaptiveTunesAndReconfigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptive run")
	}
	cfg := quickFig7Lab()
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = 2, 4, 1
	lab := NewLab(cfg, tpcw.Browsing)
	// Start from the generous (pre-tuned) configurations so the imbalance
	// signal is about topology, not thread starvation.
	for tier, c := range GenerousConfigs() {
		lab.Sys.SetTierConfig(tier, c)
	}
	res := RunAdaptive(lab, 24, AdaptiveOptions{
		Strategy:      harmony.StrategyDuplication,
		Tuner:         harmony.Options{Seed: 3},
		ReconfigEvery: 8,
		MaxMoves:      1,
	})
	if len(res.WIPS) != 24 || len(res.Layouts) != 24 {
		t.Fatalf("series lengths: %d / %d", len(res.WIPS), len(res.Layouts))
	}
	if len(res.Moves) != 1 {
		t.Fatalf("moves = %d, want 1 (layouts: %v)", len(res.Moves), res.Layouts)
	}
	mv := res.Moves[0]
	if mv.Decision.To.String() != "proxy" {
		t.Fatalf("moved to %v, want proxy tier", mv.Decision.To)
	}
	if (mv.Iteration+1)%8 != 0 {
		t.Fatalf("move at iteration %d, want a multiple of the check period", mv.Iteration+1)
	}
	before := stats.MeanOf(res.WIPS[mv.Iteration/2 : mv.Iteration+1])
	after := stats.MeanOf(res.WIPS[mv.Iteration+2:])
	t.Logf("layouts: %v", res.Layouts)
	t.Logf("before=%.1f after=%.1f", before, after)
	if after <= before {
		t.Fatalf("adaptive loop did not improve throughput: %.1f -> %.1f", before, after)
	}
}

// TestRunAdaptiveNoMoveOnBalancedCluster verifies the reconfiguration
// check stays quiet when no tier is overloaded.
func TestRunAdaptiveNoMoveOnBalancedCluster(t *testing.T) {
	cfg := QuickLab()
	cfg.Browsers = 60 // light load: nothing saturates
	lab := NewLab(cfg, tpcw.Shopping)
	res := RunAdaptive(lab, 6, AdaptiveOptions{
		Strategy:      harmony.StrategyDuplication,
		Tuner:         harmony.Options{Seed: 1},
		ReconfigEvery: 2,
	})
	if len(res.Moves) != 0 {
		t.Fatalf("unexpected moves on a balanced cluster: %+v", res.Moves)
	}
}

// TestRunAdaptiveMaxMovesBound verifies the safety bound.
func TestRunAdaptiveMaxMovesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaptive run")
	}
	cfg := quickFig7Lab()
	cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = 2, 4, 1
	lab := NewLab(cfg, tpcw.Browsing)
	for tier, c := range GenerousConfigs() {
		lab.Sys.SetTierConfig(tier, c)
	}
	res := RunAdaptive(lab, 20, AdaptiveOptions{
		Strategy:      harmony.StrategyDuplication,
		Tuner:         harmony.Options{Seed: 3},
		ReconfigEvery: 4,
		MaxMoves:      1,
	})
	if len(res.Moves) > 1 {
		t.Fatalf("MaxMoves violated: %d moves", len(res.Moves))
	}
}
