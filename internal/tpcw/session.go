package tpcw

import (
	"math"
	"sync"

	"webharmony/internal/rng"
)

// The TPC-W specification drives each emulated browser through a session
// graph: from every page only certain next pages are reachable (you reach
// Buy Confirm through Buy Request, search results through a search
// request, and so on). The plain Sampler draws interactions i.i.d. from
// the Table 1 mix; SessionSampler walks the navigation graph instead, with
// transition probabilities calibrated so that the walk's stationary
// distribution still matches Table 1. Both therefore load the cluster
// identically in steady state, but the session walk also produces
// realistic request sequences (funnels, repeated searches).

// sessionEdges lists the navigation graph: the pages reachable from each
// page, per the TPC-W page links. Home is reachable from everywhere (the
// site banner) and every row includes a plausible "continue shopping"
// path so the graph is strongly connected.
var sessionEdges = [NumInteractions][]Interaction{
	Home:                 {Home, NewProducts, BestSellers, SearchRequest, ProductDetail, ShoppingCart, OrderInquiry},
	NewProducts:          {ProductDetail, SearchRequest, Home, ShoppingCart, NewProducts},
	BestSellers:          {ProductDetail, SearchRequest, Home, ShoppingCart, BestSellers},
	ProductDetail:        {ProductDetail, SearchRequest, ShoppingCart, Home, AdminRequest, NewProducts, BestSellers},
	SearchRequest:        {SearchResults, Home},
	SearchResults:        {ProductDetail, SearchRequest, ShoppingCart, Home, SearchResults},
	ShoppingCart:         {CustomerRegistration, SearchRequest, Home, ShoppingCart, ProductDetail},
	CustomerRegistration: {BuyRequest, Home, SearchRequest},
	BuyRequest:           {BuyConfirm, Home, ShoppingCart},
	BuyConfirm:           {Home, SearchRequest, OrderInquiry},
	OrderInquiry:         {OrderDisplay, Home, SearchRequest},
	OrderDisplay:         {Home, SearchRequest, OrderInquiry},
	AdminRequest:         {AdminConfirm, Home, ProductDetail},
	AdminConfirm:         {Home, ProductDetail},
}

// transitionMatrix calibrates transition probabilities on the session
// graph so the stationary distribution equals the workload's Table 1 mix.
// It uses iterative proportional fitting: repeatedly rescale the columns
// toward the target distribution and renormalize the rows, re-deriving
// the stationary distribution by power iteration.
func transitionMatrix(w Workload) [NumInteractions][NumInteractions]float64 {
	target := Mix(w)
	total := 0.0
	for _, p := range target {
		total += p
	}
	var want [NumInteractions]float64
	for i, p := range target {
		want[i] = p / total
	}

	// Start uniform over the allowed edges.
	var p [NumInteractions][NumInteractions]float64
	for i, outs := range sessionEdges {
		for _, j := range outs {
			p[i][j] = 1 / float64(len(outs))
		}
	}

	stationary := func() [NumInteractions]float64 {
		var pi [NumInteractions]float64
		for i := range pi {
			pi[i] = 1.0 / float64(NumInteractions)
		}
		for it := 0; it < 300; it++ {
			var next [NumInteractions]float64
			for i := range pi {
				for j := range pi {
					next[j] += pi[i] * p[i][j]
				}
			}
			pi = next
		}
		return pi
	}

	for round := 0; round < 400; round++ {
		pi := stationary()
		worst := 0.0
		for j := range pi {
			if pi[j] <= 0 {
				continue
			}
			if d := math.Abs(pi[j] - want[j]); d > worst {
				worst = d
			}
		}
		if worst < 1e-7 {
			break
		}
		// Column rescale toward the target, then row renormalize.
		for i := range p {
			rowSum := 0.0
			for j := range p[i] {
				if p[i][j] > 0 && pi[j] > 0 {
					p[i][j] *= want[j] / pi[j]
				}
				rowSum += p[i][j]
			}
			if rowSum > 0 {
				for j := range p[i] {
					p[i][j] /= rowSum
				}
			}
		}
	}
	return p
}

// matrixCache memoizes the calibrated matrices (deterministic, so safe to
// share). Access is guarded by matrixMu: labs are single-threaded
// internally, but the parallel experiment runners build labs for several
// workloads concurrently, so first-use population can race.
var (
	matrixMu    sync.Mutex
	matrixCache = map[Workload]*[NumInteractions][NumInteractions]float64{}
)

func matrixFor(w Workload) *[NumInteractions][NumInteractions]float64 {
	matrixMu.Lock()
	defer matrixMu.Unlock()
	if m, ok := matrixCache[w]; ok {
		return m
	}
	m := transitionMatrix(w)
	matrixCache[w] = &m
	return &m
}

// SessionSampler draws interactions by walking the TPC-W session graph.
// Its long-run interaction frequencies match the workload's Table 1 mix.
type SessionSampler struct {
	src *rng.Source
	p   *[NumInteractions][NumInteractions]float64
	cur Interaction
}

// NewSessionSampler creates a session walk starting at the Home page.
func NewSessionSampler(w Workload, src *rng.Source) *SessionSampler {
	return &SessionSampler{src: src, p: matrixFor(w), cur: Home}
}

// SetWorkload switches the sampler to another mix; the walk continues
// from the current page.
func (s *SessionSampler) SetWorkload(w Workload) { s.p = matrixFor(w) }

// Next advances the session and returns the new page.
func (s *SessionSampler) Next() Interaction {
	u := s.src.Float64()
	acc := 0.0
	row := s.p[s.cur]
	for j, pr := range row {
		acc += pr
		if u < acc {
			s.cur = Interaction(j)
			return s.cur
		}
	}
	// Rounding residue: take the last reachable page.
	outs := sessionEdges[s.cur]
	s.cur = outs[len(outs)-1]
	return s.cur
}
