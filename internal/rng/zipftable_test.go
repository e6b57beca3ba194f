package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
	"testing"
)

// nextRef is Zipf.Next as the plain rejection-inversion loop, without the
// inversion table: the reference every table draw must agree with.
func nextRef(z *Zipf) uint64 {
	for {
		if k, ok := stepRef(z, z.src.Uint64()>>11); ok {
			return k
		}
	}
}

// stepRef is one iteration of the Hörmann–Derflinger loop on the 53-bit
// draw m, written as the loop reads it with u drawn by Float64.
func stepRef(z *Zipf, m uint64) (uint64, bool) {
	f := float64(m) / (1 << 53)
	u := z.hIntegralNumElem + f*(z.hIntegralX1-z.hIntegralNumElem)
	x := z.hIntegralInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	} else if k > float64(z.n) {
		k = float64(z.n)
	}
	if k-x <= z.sVal || u >= z.hIntegral(k+0.5)-z.h(k) {
		return uint64(k) - 1, true
	}
	return 0, false
}

const maxM = 1<<53 - 1

// checkDraw fails unless z.draw, reading z's table (or its fallback),
// and the reference iteration agree on draw m.
func checkDraw(t *testing.T, z *Zipf, m uint64) {
	t.Helper()
	gk, gok := z.draw(m)
	wk, wok := stepRef(z, m)
	if gk != wk || gok != wok {
		t.Fatalf("n=%d theta=%v m=%#x (unit %d, step %d): table (%d, %v), iteration (%d, %v)",
			z.n, z.theta, m, m>>unitShift, z.tab.step(m), gk, gok, wk, wok)
	}
}

// tabled returns a sampler of (n, theta) with a table of its own, built
// outside the shared cache.
func tabled(n uint64, theta float64) *Zipf {
	z := NewZipf(New(1), n, theta)
	z.tab = newZipfTable(z)
	return z
}

var tableCases = []struct {
	n     uint64
	theta float64
}{
	{1, 0.9}, {2, 1.5}, {350, 0.95}, {3200, 0.90}, {3200, 0.95},
	{21050, 0.90}, {21050, 0.95}, {100000, 0.9}, {4096, 0.2}, {4096, 2.5},
	{65536, 3}, {1000, 0.999999}, {1000, 1.000001},
}

// checkAround checks the draws around breakpoint unit b of z's table:
// those just outside its guard band, which the table answers and which lie
// closest to a step of the iteration, and those just inside it, which fall
// back.
func checkAround(t *testing.T, z *Zipf, b uint32) {
	t.Helper()
	const unit = 1 << unitShift
	base := int64(b) << unitShift
	for _, d := range []int64{
		-(guardUnits+1)*unit - 1, -(guardUnits + 1) * unit, -guardUnits*unit - 1,
		-unit, -1, 0, 1, unit,
		(guardUnits+1)*unit - 1, (guardUnits + 1) * unit, (guardUnits+2)*unit - 1,
	} {
		if m := base + d; m >= 0 && m <= maxM {
			checkDraw(t, z, uint64(m))
		}
	}
}

// TestZipfTableExactAtBreakpoints checks every breakpoint of each table
// from both sides, and both ends of the draw range.
func TestZipfTableExactAtBreakpoints(t *testing.T) {
	for _, c := range tableCases {
		z := tabled(c.n, c.theta)
		for _, b := range z.tab.bp {
			checkAround(t, z, b)
		}
		for _, m := range []uint64{0, 1, maxM - 1, maxM} {
			checkDraw(t, z, m)
		}
	}
}

// TestZipfTableMatchesIteration draws each case's stream twice, through
// Next and through the reference loop, and requires the same ranks.
func TestZipfTableMatchesIteration(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, c := range tableCases {
		got := NewZipf(New(uint64(c.n)), c.n, c.theta)
		want := NewZipf(New(uint64(c.n)), c.n, c.theta)
		for i := 0; i < draws; i++ {
			if g, w := got.Next(), nextRef(want); g != w {
				t.Fatalf("n=%d theta=%v draw %d: table %d, iteration %d", c.n, c.theta, i, g, w)
			}
		}
	}
}

// TestZipfTableGuardShare checks that the guard band stays the small
// fraction of draws the speed rests on: at paper scale about 3e-5 of
// all draws run the iteration.
func TestZipfTableGuardShare(t *testing.T) {
	z := NewZipf(New(5), 21050, 0.95)
	tab := sharedZipfTable(z)
	src := New(6)
	const draws = 1_000_000
	fallback := 0
	for i := 0; i < draws; i++ {
		if tab.step(src.Uint64()>>11) < 0 {
			fallback++
		}
	}
	if share := float64(fallback) / draws; share > 2e-4 {
		t.Fatalf("guard band share %v, want about 3e-5", share)
	}
	if sharedZipfTable(NewZipf(New(7), 21050, 0.95)) != tab {
		t.Fatal("samplers with the same (n, theta) built separate tables")
	}
}

// TestZipfLargeNIterates: a sampler too large for a table runs the
// iteration directly, with the same stream.
func TestZipfLargeNIterates(t *testing.T) {
	const n = maxTableRanks + 1
	got := NewZipf(New(8), n, 0.9)
	want := NewZipf(New(8), n, 0.9)
	for i := 0; i < 1000; i++ {
		if g, w := got.Next(), nextRef(want); g != w {
			t.Fatalf("draw %d: %d, want %d", i, g, w)
		}
	}
	if got.tab != nil {
		t.Fatal("sampler above maxTableRanks built a table")
	}
}

// TestZipfStreamPinned pins an FNV-1a hash of the first 10^6 ranks at the
// catalog sizes the experiments use, the paper-scale 21,050-rank catalog
// included. The hashes were recorded from the plain rejection-inversion
// loop, before the inversion table existed.
func TestZipfStreamPinned(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		theta float64
		want  uint64
	}{
		{3200, 0.95, 0xd2479106a186d38a},
		{3200, 0.90, 0x935566ceab90db69},
		{21050, 0.95, 0x3544840470c98d82},
		{21050, 0.90, 0xe11cf311377523f7},
		{100000, 0.9, 0x9fc8f03819d54e6e},
	} {
		z := NewZipf(New(2024), c.n, c.theta)
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 1_000_000; i++ {
			r := z.Next()
			for j := range b {
				b[j] = byte(r >> (8 * j))
			}
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("n=%d theta=%v: stream hash %#x, want %#x", c.n, c.theta, got, c.want)
		}
	}
}

// FuzzZipfTable: for any n in [1, 2^16], theta in (0, 3] other than 1,
// and any 53-bit draw m, the table's step (or its fallback inside the
// guard band) equals one reference iteration, and so do the steps around
// the breakpoints on either side of m.
func FuzzZipfTable(f *testing.F) {
	for _, c := range []struct {
		n     uint16
		theta float64
	}{{3199, 0.95}, {3199, 0.9}, {20, 1.5}, {0, 3}, {4095, 0.2}} {
		bp := tabled(uint64(c.n)+1, c.theta).tab.bp
		for _, i := range []int{1, 2, 3, len(bp) / 2, len(bp) - 2} {
			if i <= 0 || i >= len(bp)-1 {
				continue
			}
			base := uint64(bp[i]) << unitShift
			f.Add(c.n, c.theta, base+1<<unitShift)
			f.Add(c.n, c.theta, base-1<<unitShift)
		}
	}
	f.Add(uint16(9), 0.99, uint64(0))
	f.Add(uint16(9), 0.99, uint64(maxM))
	f.Fuzz(func(t *testing.T, n16 uint16, theta float64, m uint64) {
		if !(theta > 0 && theta <= 3) || theta == 1 {
			t.Skip()
		}
		z := tabled(uint64(n16)+1, theta)
		m &= maxM
		checkDraw(t, z, m)
		// And the table's answers closest to m's neighbouring breakpoints.
		bp := z.tab.bp
		i := sort.Search(len(bp), func(i int) bool { return bp[i] > uint32(m>>unitShift) })
		checkAround(t, z, bp[i-1])
		if i < len(bp) {
			checkAround(t, z, bp[i])
		}
	})
}

// TestZipfTableSharedAcrossGoroutines: samplers on parallel workers build
// and read one shared table (run under -race), and each stream is the one
// a lone sampler draws.
func TestZipfTableSharedAcrossGoroutines(t *testing.T) {
	const workers, draws = 4, 20000
	theta := 0.9 + 1e-9 // a (n, theta) no other test has built yet
	want := make([]uint64, draws)
	ref := NewZipf(New(11), 5000, theta)
	for i := range want {
		want[i] = nextRef(ref)
	}
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		go func() {
			z := NewZipf(New(11), 5000, theta)
			for i := range want {
				if got := z.Next(); got != want[i] {
					errs <- fmt.Sprintf("draw %d: %d, want %d", i, got, want[i])
					return
				}
			}
			errs <- ""
		}()
	}
	for w := 0; w < workers; w++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}

// maskKeep returns a keep predicate that keeps a rank when the bit of mask
// its hashed rank selects is set: a scattered set of about
// popcount(mask)/64 of the ranks.
func maskKeep(mask uint64) func(uint64) bool {
	return func(r uint64) bool { return mask>>(r*0x9e3779b97f4a7c15>>58)&1 == 1 }
}

// nextKeptRef is the loop a filter stands in for: the reference iteration
// drawn again until keep accepts its rank.
func nextKeptRef(z *Zipf, keep func(uint64) bool) uint64 {
	for {
		if k := nextRef(z); keep(k) {
			return k
		}
	}
}

// nextKept is the same loop over NextFiltered.
func nextKept(z *Zipf, f *ZipfFilter, keep func(uint64) bool) uint64 {
	for {
		if k := z.NextFiltered(f); keep(k) {
			return k
		}
	}
}

// checkFilter fails if the reference iteration accepts a kept rank on the
// 53-bit draw m but f rejects m.
func checkFilter(t *testing.T, z *Zipf, f *ZipfFilter, keep func(uint64) bool, m uint64) {
	t.Helper()
	if k, ok := stepRef(z, m); ok && keep(k) && !f.pass(m) {
		t.Fatalf("n=%d theta=%v m=%#x (unit %d): the iteration accepts kept rank %d, the filter rejects the draw",
			z.n, z.theta, m, m>>unitShift, k)
	}
}

// checkFilterAround checks f at the draws around breakpoint unit b, the
// same offsets checkAround reads.
func checkFilterAround(t *testing.T, z *Zipf, f *ZipfFilter, keep func(uint64) bool, b uint32) {
	t.Helper()
	const unit = 1 << unitShift
	base := int64(b) << unitShift
	for _, d := range []int64{
		-(guardUnits+2)*unit - 1, -(guardUnits + 1) * unit, -guardUnits*unit - 1,
		-unit, -1, 0, 1, unit,
		(guardUnits+1)*unit - 1, (guardUnits + 1) * unit, (guardUnits+2)*unit - 1,
	} {
		if m := base + d; m >= 0 && m <= maxM {
			checkFilter(t, z, f, keep, uint64(m))
		}
	}
}

// filterMasks are the keep sets the filter tests draw through, as masks
// for maskKeep: 3 in 64 of the ranks (about the static pages' share), a
// quarter, half, every rank, and 1 in 64.
var filterMasks = []uint64{1<<0 | 1<<21 | 1<<42, 0x1111111111111111, 0x5555555555555555, math.MaxUint64, 1}

// TestZipfFilterMatchesLoop draws each case through NextFiltered and
// through the reference loop, both drawing again until keep accepts, and
// requires the same ranks and, after them, the same source state.
func TestZipfFilterMatchesLoop(t *testing.T) {
	draws := 5000
	if testing.Short() {
		draws = 2000
	}
	for _, c := range tableCases {
		for _, mask := range filterMasks {
			keep := maskKeep(mask)
			if c.n < 64 && !keep(0) && !keep(c.n-1) {
				continue // a tiny sampler may keep no rank at all
			}
			for seed := uint64(1); seed <= 3; seed++ {
				got := NewZipf(New(seed), c.n, c.theta)
				want := NewZipf(New(seed), c.n, c.theta)
				f := got.Filter(keep)
				for i := 0; i < draws; i++ {
					if g, w := nextKept(got, f, keep), nextKeptRef(want, keep); g != w {
						t.Fatalf("n=%d theta=%v mask=%#x seed %d draw %d: filtered %d, reference loop %d",
							c.n, c.theta, mask, seed, i, g, w)
					}
				}
				if *got.src != *want.src {
					t.Fatalf("n=%d theta=%v mask=%#x seed %d: the filtered loop consumed another stream", c.n, c.theta, mask, seed)
				}
			}
		}
	}
}

// TestZipfFilterTableless: a sampler too large for a table sets every
// bucket, and its filtered loop is still the reference loop.
func TestZipfFilterTableless(t *testing.T) {
	const n = maxTableRanks + 1
	keep := maskKeep(0x1111111111111111)
	got := NewZipf(New(8), n, 0.9)
	want := NewZipf(New(8), n, 0.9)
	f := got.Filter(keep)
	for _, w := range f.bits {
		if w != math.MaxUint64 {
			t.Fatalf("table-less filter has unset buckets: %#x", w)
		}
	}
	for i := 0; i < 1000; i++ {
		if g, w := nextKept(got, f, keep), nextKeptRef(want, keep); g != w {
			t.Fatalf("draw %d: filtered %d, reference loop %d", i, g, w)
		}
	}
	if *got.src != *want.src {
		t.Fatal("the filtered loop consumed another stream")
	}
}

// TestZipfFilterCoversBreakpoints checks the filter on both sides of both
// ends of every kept rank's accept step, where the table hands draws to
// the iteration, and at both ends of the draw range.
func TestZipfFilterCoversBreakpoints(t *testing.T) {
	for _, c := range tableCases {
		z := tabled(c.n, c.theta)
		for _, mask := range filterMasks[:2] {
			keep := maskKeep(mask)
			f := z.Filter(keep)
			for r := uint64(0); r < z.n; r++ {
				if keep(r) {
					s := 2 * (z.n - 1 - r)
					checkFilterAround(t, z, f, keep, z.tab.bp[s])
					checkFilterAround(t, z, f, keep, z.tab.bp[s+1])
				}
			}
			for _, m := range []uint64{0, 1, maxM - 1, maxM} {
				checkFilter(t, z, f, keep, m)
			}
		}
	}
}

// TestZipfFilterMarksFew checks that the filter rejects what the speed
// rests on: with about the static pages' share of the ranks kept, 3 in 64
// scattered at random, a paper-scale sampler sets under 15% of its
// buckets. (Tail buckets each span about two ranks, so a scattered set
// marks about twice its share; the static pages' own ranks mark 5–7.5%.)
func TestZipfFilterMarksFew(t *testing.T) {
	z := NewZipf(New(1), 21050, 0.95)
	f := z.Filter(maskKeep(filterMasks[0]))
	set := 0
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	if share := float64(set) / float64(f.nb); share > 0.15 {
		t.Fatalf("%.3f of the buckets set, want under 0.15", share)
	}
}

// FuzzZipfFilter: for any n in [1, 2^16], theta in (0, 3] other than 1,
// seed and keep mask, the filtered loop draws the reference loop's ranks
// from the same stream, and the filter passes every draw around the
// breakpoints near the stream's first draw that accepts a kept rank.
func FuzzZipfFilter(f *testing.F) {
	f.Add(uint16(1049), 0.95, uint64(1), filterMasks[0])
	f.Add(uint16(3199), 0.9, uint64(2), filterMasks[1])
	f.Add(uint16(20), 1.5, uint64(3), uint64(1))
	f.Add(uint16(0), 0.5, uint64(4), uint64(math.MaxUint64))
	f.Add(uint16(4095), 1.2, uint64(5), uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, n16 uint16, theta float64, seed, mask uint64) {
		if !(theta > 0 && theta <= 3) || theta == 1 {
			t.Skip()
		}
		n := uint64(n16) + 1
		keep := maskKeep(mask)
		kept := false
		for r := uint64(0); r < n && !kept; r++ {
			kept = keep(r)
		}
		if !kept {
			t.Skip() // the loop would never return
		}
		got := tabled(n, theta)
		got.src = New(seed)
		want := NewZipf(New(seed), n, theta)
		filter := got.Filter(keep)
		// A sampler whose kept ranks are all rare can take long to draw
		// one; a few draws still cover the stream.
		for i := 0; i < 50; i++ {
			if g, w := nextKept(got, filter, keep), nextKeptRef(want, keep); g != w {
				t.Fatalf("n=%d theta=%v mask=%#x seed %d draw %d: filtered %d, reference loop %d", n, theta, mask, seed, i, g, w)
			}
		}
		if *got.src != *want.src {
			t.Fatal("the filtered loop consumed another stream")
		}
		bp := got.tab.bp
		m := New(seed).Uint64() >> 11
		i := sort.Search(len(bp), func(i int) bool { return bp[i] > uint32(m>>unitShift) })
		for j := max(i-8, 0); j < min(i+8, len(bp)); j++ {
			checkFilterAround(t, got, filter, keep, bp[j])
		}
	})
}
