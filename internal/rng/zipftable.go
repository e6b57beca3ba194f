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

// ZipfFilter is a quick-reject filter for a sampler whose caller wants
// only some ranks (the kept ranks) and draws again on the rest. It marks,
// over the table's units, where a kept rank can be accepted: a bitset of
// filterBuckets buckets per rank, whose bit is set when some kept rank's
// accept step overlaps the bucket once the step is widened by guardUnits+1
// units on each side. The top guard region, where the table always runs
// the iteration, is set too.
//
// Exactness: a draw whose unit lies in an unset bucket cannot return a
// kept rank. The table answers a draw outside every guard band with the
// step holding its unit, and a kept rank's step is marked. A draw inside a
// guard band runs the iteration, whose breakpoints lie within a unit of the
// stored ones, so an accepted rank's draw lies within a unit of the rank's
// stored step, well inside the widened one. Rejecting such a draw without
// reading the table therefore drops only draws the caller would have drawn
// past anyway.
type ZipfFilter struct {
	bits []uint64
	nb   uint64 // buckets; the bucket of unit v is v·nb/2^32
}

// filterBuckets is the filter's buckets per rank.
const filterBuckets = 4

// pass reports whether the 53-bit draw m may return a kept rank.
func (f *ZipfFilter) pass(m uint64) bool {
	b := (m >> unitShift) * f.nb >> 32
	return f.bits[b>>6]&(1<<(b&63)) != 0
}

// set marks the buckets holding units lo through hi.
func (f *ZipfFilter) set(lo, hi uint64) {
	for b := lo * f.nb >> 32; b <= hi*f.nb>>32; b++ {
		f.bits[b>>6] |= 1 << (b & 63)
	}
}

// Filter returns a quick-reject filter over the ranks keep reports, for
// NextFiltered. Building it calls keep once per rank. Without a table
// every draw runs the iteration, so every bucket is set.
func (z *Zipf) Filter(keep func(rank uint64) bool) *ZipfFilter {
	z.table()
	t, n := z.tab, z.n
	if t == nil {
		return &ZipfFilter{bits: []uint64{math.MaxUint64}, nb: 64}
	}
	f := &ZipfFilter{nb: filterBuckets * n}
	f.bits = make([]uint64, (f.nb+63)/64)
	const widen = guardUnits + 1
	for r := uint64(0); r < n; r++ {
		if !keep(r) {
			continue
		}
		s := 2 * (n - 1 - r) // rank r's accept step
		lo, hi := uint64(t.bp[s]), uint64(t.bp[s+1])
		f.set(lo-min(lo, widen), min(hi+widen, math.MaxUint32))
	}
	f.set(math.MaxUint32-guardUnits, math.MaxUint32)
	return f
}
