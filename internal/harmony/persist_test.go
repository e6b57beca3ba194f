package harmony

import (
	"math"
	"strings"
	"testing"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 21, GuardFactor: 0.2})
	f := peakAt(33, 66)
	runSession(s, f, 40)
	snap, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(loaded)
	if err != nil {
		t.Fatal(err)
	}
	// The restored session agrees on history and best...
	if restored.Iterations() != s.Iterations() {
		t.Fatalf("iterations: %d vs %d", restored.Iterations(), s.Iterations())
	}
	b1, p1, _ := s.Best()
	b2, p2, _ := restored.Best()
	if !b1.Equal(b2) || p1 != p2 {
		t.Fatalf("best diverged: %v/%v vs %v/%v", b1, p1, b2, p2)
	}
	// ...and continues identically.
	for i := 0; i < 20; i++ {
		c1 := s.NextConfig()
		c2 := restored.NextConfig()
		if !c1.Equal(c2) {
			t.Fatalf("post-restore proposal %d diverged: %v vs %v", i, c1, c2)
		}
		v := f(c1)
		s.Report(v)
		restored.Report(v)
	}
}

func TestSaveWithOutstandingProposalFails(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 1})
	s.NextConfig()
	if _, err := s.Save(); err == nil {
		t.Fatal("Save with outstanding proposal accepted")
	}
}

func TestRestoreDetectsTampering(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 5})
	runSession(s, peakAt(10, 10), 10)
	snap, _ := s.Save()
	snap.Configs[3][0] = snap.Configs[3][0] + 1 // corrupt one proposal
	if _, err := Restore(snap); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered snapshot accepted: %v", err)
	}
}

func TestRestoreValidation(t *testing.T) {
	s := NewSession(testSpace(), Options{Seed: 5})
	runSession(s, peakAt(10, 10), 5)
	snap, _ := s.Save()

	bad := *snap
	bad.Options.Algorithm = "genetic"
	if _, err := Restore(&bad); err == nil {
		t.Fatal("unknown algorithm accepted")
	}

	bad2 := *snap
	bad2.Perf = bad2.Perf[:2]
	if _, err := Restore(&bad2); err == nil {
		t.Fatal("mismatched lengths accepted")
	}

	bad3 := *snap
	bad3.Params = nil
	if _, err := Restore(&bad3); err == nil {
		t.Fatal("empty space accepted")
	}

	// Factors the session would silently ignore are refused, not replayed
	// unguarded or without shift detection.
	for _, f := range []struct {
		guard, shift float64
		want         string
	}{
		{1.5, 0, "guard factor 1.5 is outside [0, 1)"},
		{math.NaN(), 0, "guard factor NaN is outside [0, 1)"},
		{0, math.Inf(1), "shift factor +Inf is not a finite value >= 0"},
		{0, math.NaN(), "shift factor NaN is not a finite value >= 0"},
		{0, -1, "shift factor -1 is not a finite value >= 0"},
	} {
		bad4 := *snap
		bad4.Options.GuardFactor, bad4.Options.ShiftFactor = f.guard, f.shift
		if _, err := Restore(&bad4); err == nil || !strings.Contains(err.Error(), f.want) {
			t.Errorf("Restore(guard %v, shift %v) = %v, want an error containing %q", f.guard, f.shift, err, f.want)
		}
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveRestoreAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{AlgoNelderMead, AlgoRandom, AlgoCoordinate} {
		s := NewSession(testSpace(), Options{Algorithm: algo, Seed: 13})
		runSession(s, peakAt(40, 40), 25)
		snap, err := s.Save()
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		restored, err := Restore(snap)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		c1, c2 := s.NextConfig(), restored.NextConfig()
		if !c1.Equal(c2) {
			t.Fatalf("%v: continuation diverged", algo)
		}
	}
}

func TestSaveRestoreWithAnchor(t *testing.T) {
	anchor := testSpace().DefaultConfig()
	anchor[0] = 77
	s := NewSession(testSpace(), Options{Seed: 2, Anchor: anchor})
	runSession(s, peakAt(77, 20), 15)
	snap, _ := s.Save()
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.NextConfig().Equal(s.NextConfig()) {
		t.Fatal("anchored session diverged after restore")
	}
}
