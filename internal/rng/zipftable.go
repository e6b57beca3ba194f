package rng

import (
	"math"
	"sync"
)

// The inversion table behind Zipf.Next.
//
// One rejection-inversion iteration reads a 53-bit integer m (the value
// Float64 divides by 2^53) and either accepts a rank or draws again. As m
// grows, u = hN + m/2^53·(hX1−hN) falls, so x = hIntegralInv(u) falls and
// the candidate rank k = round(x) falls with it; inside rank k's interval
// the test accepts the low-m part (small k−x, or u above
// hIntegral(k+½)−h(k)) and rejects the rest. The outcome is therefore a step
// function of m with at most 2n−1 steps — rank n accepted, rank n rejected,
// rank n−1 accepted, ..., rank 1 accepted — whose 2n−2 breakpoints are
// hIntegral values mapped back to m.
//
// The table stores those breakpoints in units of 2^21 draws (so each fits a
// uint32), and a draw reads its step off the table instead of evaluating
// the transcendental functions. Exactness: the floating-point iteration and
// the breakpoint arithmetic each err by a few ulps of u, which maps back to
// at most a few thousand draws of m — far less than one unit (2^21 draws).
// So a draw whose unit lies more than guardUnits from every stored
// breakpoint (and from both ends of the range) takes the same step in the
// table as in the iteration. A draw within the guard band, about 3e-5 of
// draws at paper scale, runs the iteration itself. Either way it consumes
// one Uint64, so every stream is the one the iteration alone produces.
const (
	unitShift  = 21 // a table unit is 2^21 of the 2^53 values of m
	guardUnits = 2  // units either side of a breakpoint that run the iteration
	// maxTableRanks bounds the table at 12 MB; larger samplers iterate.
	maxTableRanks = 1 << 20
)

type zipfTable struct {
	// bp[s] is the first unit of step s, for s in [0, 2n−2]: step s accepts
	// rank n−1−s/2 (0-based) when s is even and draws again when it is
	// odd. bp[0] = 0, and bp[2n−1] = MaxUint32 ends the scan.
	bp []uint32
	// guide[b] is the first index i with bp[i] above bucket b's lowest
	// unit, for b in [0, nb]; the bucket of unit v is v·nb/2^32, so the
	// first bp above v is in bp[guide[b] : guide[b+1]+1].
	guide []uint32
	nb    uint64 // buckets, one per rank
}

// step returns the table's step for the 53-bit draw m, or -1 when m lies
// within the guard band and only the iteration can tell.
func (t *zipfTable) step(m uint64) int {
	v := uint32(m >> unitShift)
	if v >= math.MaxUint32-guardUnits {
		return -1
	}
	b := uint64(v) * t.nb >> 32
	i, end := t.guide[b], t.guide[b+1]
	if end-i > 8 {
		// A crowded bucket (a tail where ranks are narrower than a unit):
		// binary search for the first bp above v in bp[i:end].
		for i < end {
			if mid := i + (end-i)/2; t.bp[mid] <= v {
				i = mid + 1
			} else {
				end = mid
			}
		}
	}
	for t.bp[i] <= v {
		i++
	}
	if v-t.bp[i-1] <= guardUnits || t.bp[i]-v <= guardUnits {
		return -1
	}
	return int(i) - 1
}

// newZipfTable builds the inversion table of z's (n, theta).
func newZipfTable(z *Zipf) *zipfTable {
	n := z.n
	bp := make([]uint32, 2*n)
	// unit maps a breakpoint u back to the unit of m where it falls.
	span := z.hIntegralX1 - z.hIntegralNumElem
	unit := func(u float64) uint32 {
		f := (u - z.hIntegralNumElem) / span * (1 << 32)
		switch {
		case !(f > 0):
			return 0
		case f >= math.MaxUint32:
			return math.MaxUint32
		}
		return uint32(f)
	}
	upper := z.hIntegralNumElem // hIntegral(k+½), the top of rank k's u
	for k, i := n, 1; k >= 2; k, i = k-1, i+2 {
		kf := float64(k)
		lower := z.hIntegral(kf - 0.5)
		// Rank k is accepted for u >= min(hIntegral(k−s), hIntegral(k+½)−h(k)):
		// k−x <= s is x >= k−s, the same as u >= hIntegral(k−s).
		accept := math.Min(z.hIntegral(kf-z.sVal), upper-z.h(kf))
		accept = math.Max(math.Min(accept, upper), lower)
		bp[i] = unit(accept)
		bp[i+1] = unit(lower)
		upper = lower
	}
	bp[2*n-1] = math.MaxUint32
	// Rounding may leave neighbours a unit out of order where they are
	// closer than a unit; both lie in the guard band either way.
	for i := 1; i < len(bp); i++ {
		bp[i] = max(bp[i], bp[i-1])
	}
	t := &zipfTable{bp: bp, guide: make([]uint32, n+1), nb: n}
	i := uint32(1)
	for b := range t.guide {
		lo := min((uint64(b)<<32+n-1)/n, math.MaxUint32)
		for int(i) < len(bp)-1 && uint64(bp[i]) <= lo {
			i++
		}
		t.guide[b] = i
	}
	return t
}

// zipfTables holds one lazily built table per (n, theta), shared read-only
// by every sampler in the process.
var zipfTables sync.Map // zipfKey → *lazyZipfTable

type zipfKey struct {
	n     uint64
	theta uint64 // math.Float64bits(theta)
}

type lazyZipfTable struct {
	once sync.Once
	t    *zipfTable
}

// sharedZipfTable returns the table of z's (n, theta), building it on
// first use.
func sharedZipfTable(z *Zipf) *zipfTable {
	key := zipfKey{z.n, math.Float64bits(z.theta)}
	e, ok := zipfTables.Load(key)
	if !ok {
		e, _ = zipfTables.LoadOrStore(key, new(lazyZipfTable))
	}
	l := e.(*lazyZipfTable)
	l.once.Do(func() { l.t = newZipfTable(z) })
	return l.t
}
