package tpcw

import (
	"math"
	"testing"

	"webharmony/internal/rng"
)

func TestSessionGraphValid(t *testing.T) {
	if err := validateGraph(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionGraphOrderFunnel(t *testing.T) {
	// The purchase funnel must be navigable: Cart → Registration →
	// Buy Request → Buy Confirm.
	has := func(from, to Interaction) bool {
		for _, j := range sessionEdges[from] {
			if j == to {
				return true
			}
		}
		return false
	}
	if !has(ShoppingCart, CustomerRegistration) ||
		!has(CustomerRegistration, BuyRequest) ||
		!has(BuyRequest, BuyConfirm) {
		t.Fatal("purchase funnel broken")
	}
	// Search results only via a search request.
	for i, outs := range sessionEdges {
		for _, j := range outs {
			if j == SearchResults && Interaction(i) != SearchRequest && Interaction(i) != SearchResults {
				t.Fatalf("%v links directly to search results", Interaction(i))
			}
		}
	}
}

func TestTransitionMatrixRowsNormalized(t *testing.T) {
	for _, w := range Workloads() {
		p := matrixFor(w)
		for i := range p {
			sum := 0.0
			for j := range p[i] {
				if p[i][j] < 0 {
					t.Fatalf("%v: negative probability at %v→%v", w, Interaction(i), Interaction(j))
				}
				// Off-graph transitions must stay zero.
				allowed := false
				for _, k := range sessionEdges[i] {
					if int(k) == j {
						allowed = true
					}
				}
				if !allowed && p[i][j] != 0 {
					t.Fatalf("%v: probability on non-edge %v→%v", w, Interaction(i), Interaction(j))
				}
				sum += p[i][j]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v: row %v sums to %v", w, Interaction(i), sum)
			}
		}
	}
}

func TestSessionStationaryMatchesTable1(t *testing.T) {
	for _, w := range Workloads() {
		if err := StationaryError(w); err > 0.05 {
			t.Errorf("%v: stationary distribution deviates %.3f points from Table 1", w, err)
		}
	}
}

func TestSessionWalkFrequenciesMatchTable1(t *testing.T) {
	for _, w := range Workloads() {
		s := NewSessionSampler(w, rng.New(uint64(w)*7+1))
		var counts [NumInteractions]int
		const n = 400000
		for i := 0; i < n; i++ {
			counts[s.Next()]++
		}
		mix := Mix(w)
		for i, want := range mix {
			got := float64(counts[i]) / n * 100
			if math.Abs(got-want) > 0.4 {
				t.Errorf("%v %v: walked %.2f%%, Table 1 %.2f%%", w, Interaction(i), got, want)
			}
		}
	}
}

func TestSessionWalkOnlyUsesGraphEdges(t *testing.T) {
	s := NewSessionSampler(Shopping, rng.New(5))
	prev := s.cur
	for i := 0; i < 20000; i++ {
		next := s.Next()
		found := false
		for _, j := range sessionEdges[prev] {
			if j == next {
				found = true
			}
		}
		if !found {
			t.Fatalf("walk used non-edge %v→%v", prev, next)
		}
		prev = next
	}
}

func TestSessionStartsAtHome(t *testing.T) {
	s := NewSessionSampler(Browsing, rng.New(1))
	if s.cur != Home {
		t.Fatal("session should start at Home")
	}
}

func TestSessionSetWorkloadShiftsMix(t *testing.T) {
	s := NewSessionSampler(Browsing, rng.New(9))
	for i := 0; i < 1000; i++ {
		s.Next()
	}
	s.SetWorkload(Ordering)
	orders := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if s.Next().Class() == ClassOrder {
			orders++
		}
	}
	share := float64(orders) / n
	if math.Abs(share-0.5) > 0.02 {
		t.Fatalf("order share after switch = %v, want ~0.5", share)
	}
}

func TestSessionDeterministicGivenSeed(t *testing.T) {
	a := NewSessionSampler(Shopping, rng.New(11))
	b := NewSessionSampler(Shopping, rng.New(11))
	for i := 0; i < 5000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("walk diverged at step %d", i)
		}
	}
}

func BenchmarkSessionSamplerNext(b *testing.B) {
	s := NewSessionSampler(Shopping, rng.New(1))
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
