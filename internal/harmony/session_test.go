package harmony

import (
	"math"
	"testing"

	"webharmony/internal/param"
	"webharmony/internal/rng"
)

func testSpace() *param.Space {
	return param.MustSpace(
		param.Def{Name: "x", Min: 0, Max: 100, Default: 10, Step: 1},
		param.Def{Name: "y", Min: 0, Max: 100, Default: 90, Step: 1},
	)
}

// peakAt builds a performance function with a single maximum at (px, py).
func peakAt(px, py float64) func(param.Config) float64 {
	return func(c param.Config) float64 {
		dx := float64(c[0]) - px
		dy := float64(c[1]) - py
		return 1000 - (dx*dx+dy*dy)/10
	}
}

func runSession(s *Session, f func(param.Config) float64, n int) {
	for i := 0; i < n; i++ {
		cfg := s.NextConfig()
		s.Report(f(cfg))
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgoNelderMead.String() != "nelder-mead" || AlgoRandom.String() != "random" ||
		AlgoCoordinate.String() != "coordinate" || Algorithm(9).String() != "unknown" {
		t.Fatal("Algorithm names wrong")
	}
}

func TestSessionImprovesPerformance(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 1})
	f := peakAt(70, 30)
	defPerf := f(testSpace().DefaultConfig())
	runSession(s, f, 150)
	_, best, ok := s.Best()
	if !ok || best <= defPerf {
		t.Fatalf("no improvement: best %v vs default %v", best, defPerf)
	}
	if s.Iterations() != 150 {
		t.Fatalf("Iterations = %d", s.Iterations())
	}
}

func TestSessionMaximizes(t *testing.T) {
	// The session must seek HIGH performance (WIPS), not low.
	s := NewSession(testSpace(), Options{Seed: 2})
	f := peakAt(50, 50)
	runSession(s, f, 100)
	best, bestPerf, _ := s.Best()
	if bestPerf < f(param.Config{30, 30}) {
		t.Fatalf("best %v at %v worse than a mediocre point", bestPerf, best)
	}
}

func TestSessionNextConfigIdempotentUntilReport(t *testing.T) {
	s := NewSession(testSpace(), Options{})
	a := s.NextConfig()
	b := s.NextConfig()
	if !a.Equal(b) {
		t.Fatal("NextConfig changed without a Report")
	}
	s.Report(1)
}

func TestSessionReportWithoutAskPanics(t *testing.T) {
	s := NewSession(testSpace(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Report without NextConfig did not panic")
		}
	}()
	s.Report(1)
}

func TestSessionHistory(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 3})
	runSession(s, peakAt(10, 10), 20)
	h := s.History()
	if len(h) != 20 {
		t.Fatalf("history has %d records", len(h))
	}
	for _, r := range h {
		if len(r.Config) != 2 {
			t.Fatal("record config wrong length")
		}
	}
}

func TestSessionBestEverSurvivesRestart(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 4})
	f := peakAt(70, 70)
	runSession(s, f, 60)
	_, bestBefore, _ := s.BestEver()
	s.Restart()
	if _, _, ok := s.Best(); ok {
		t.Fatal("Best not cleared by Restart")
	}
	_, bestEver, ok := s.BestEver()
	if !ok || bestEver != bestBefore {
		t.Fatal("BestEver lost by Restart")
	}
	if s.Resets() != 1 {
		t.Fatalf("Resets = %d", s.Resets())
	}
	// Session keeps working after restart.
	runSession(s, f, 30)
	if s.Iterations() != 90 {
		t.Fatal("iterations not accumulated across restart")
	}
}

func TestShiftDetectionTriggersRestart(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 5, ShiftFactor: 0.3, ShiftPatience: 3})
	f1 := peakAt(80, 20)
	runSession(s, f1, 80) // learn environment 1
	if s.Resets() != 0 {
		t.Fatal("spurious restart during stable environment")
	}
	// Environment shifts: performance scale collapses.
	f2 := func(c param.Config) float64 { return peakAt(20, 80)(c) / 10 }
	runSession(s, f2, 30)
	if s.Resets() == 0 {
		t.Fatal("workload shift not detected")
	}
	// And the session adapts to the new peak.
	runSession(s, f2, 100)
	best, _, _ := s.Best()
	d := math.Hypot(float64(best[0])-20, float64(best[1])-80)
	if d > 60 {
		t.Fatalf("after shift best %v still far from new peak", best)
	}
}

func TestShiftDetectionDisabledByDefault(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 6})
	runSession(s, peakAt(50, 50), 50)
	runSession(s, func(param.Config) float64 { return 1 }, 50)
	if s.Resets() != 0 {
		t.Fatal("shift detection ran despite being disabled")
	}
}

func TestSessionAlgorithms(t *testing.T) {
	f := peakAt(60, 40)
	for _, algo := range []Algorithm{AlgoNelderMead, AlgoRandom, AlgoCoordinate} {
		s := NewSession(testSpace(), Options{Algorithm: algo, Seed: 8})
		runSession(s, f, 120)
		_, best, ok := s.Best()
		if !ok {
			t.Fatalf("%v: no best", algo)
		}
		if best < f(testSpace().DefaultConfig()) {
			t.Fatalf("%v: best %v worse than default", algo, best)
		}
	}
}

func TestNelderMeadBeatsRandomOnPeak(t *testing.T) {
	f := peakAt(73, 27)
	nm := NewSession(testSpace(), Options{Algorithm: AlgoNelderMead, Seed: 9})
	rs := NewSession(testSpace(), Options{Algorithm: AlgoRandom, Seed: 9})
	runSession(nm, f, 60)
	runSession(rs, f, 60)
	_, nmBest, _ := nm.Best()
	_, rsBest, _ := rs.Best()
	if nmBest < rsBest {
		t.Fatalf("simplex (%v) lost to random (%v)", nmBest, rsBest)
	}
}

func TestSessionGuardFactorPlumbs(t *testing.T) {
	// The guard approaches extremes slowly: on a landscape whose optimum
	// sits at the boundary corner, a guarded session proposes fewer
	// extreme configurations than an unguarded one over the same budget.
	count := func(guard float64) int {
		s := NewSession(testSpace(), Options{GuardFactor: guard, Seed: 10})
		src := rng.New(1)
		extremes := 0
		for i := 0; i < 50; i++ {
			cfg := s.NextConfig()
			if cfg[0] == 0 || cfg[0] == 100 || cfg[1] == 0 || cfg[1] == 100 {
				extremes++
			}
			s.Report(float64(cfg[0]+cfg[1]) + src.Float64()) // push to corner
		}
		return extremes
	}
	guarded, unguarded := count(0.3), count(0)
	if guarded >= unguarded {
		t.Fatalf("guard did not reduce extreme proposals: %d >= %d", guarded, unguarded)
	}
}

func TestSessionNoisyLandscapeStillImproves(t *testing.T) {
	src := rng.New(42)
	f := func(c param.Config) float64 {
		return peakAt(65, 35)(c) + src.Normal(0, 20) // ~2% noise near peak
	}
	s := NewSession(testSpace(), Options{Seed: 11})
	runSession(s, f, 200)
	best, _, _ := s.BestEver()
	d := math.Hypot(float64(best[0])-65, float64(best[1])-35)
	if d > 50 {
		t.Fatalf("noisy tuning landed far from peak: %v", best)
	}
}

func TestSessionStringer(t *testing.T) {
	s := NewSession(testSpace(), Options{})
	if s.String() == "" {
		t.Fatal("empty String")
	}
	if s.Space().Len() != 2 {
		t.Fatal("Space accessor wrong")
	}
}

func TestAnnealingAlgorithmViaSession(t *testing.T) {
	f := peakAt(60, 40)
	s := NewSession(testSpace(), Options{Algorithm: AlgoAnnealing, Seed: 15})
	runSession(s, f, 200)
	_, best, ok := s.Best()
	if !ok || best < f(testSpace().DefaultConfig()) {
		t.Fatalf("annealing session did not improve: %v", best)
	}
	if AlgoAnnealing.String() != "annealing" {
		t.Fatal("algorithm name wrong")
	}
	// Persistence round-trips the annealer too.
	snap, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.NextConfig().Equal(s.NextConfig()) {
		t.Fatal("annealing restore diverged")
	}
}
