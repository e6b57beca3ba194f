package webobj

import (
	"testing"
	"testing/quick"

	"webharmony/internal/rng"
)

func TestCatalogCounts(t *testing.T) {
	c := NewCatalog(10000, 1)
	if c.CacheableTotal() >= c.Total() {
		t.Fatal("dynamic objects missing")
	}
	if c.CacheableTotal() != c.Total()-uint64(10000)-1000 {
		t.Fatalf("cacheable=%d total=%d", c.CacheableTotal(), c.Total())
	}
}

func TestCatalogPanicsOnZeroScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCatalog(0) did not panic")
		}
	}()
	NewCatalog(0, 1)
}

func TestObjectDeterminism(t *testing.T) {
	c1 := NewCatalog(1000, 7)
	c2 := NewCatalog(1000, 7)
	for id := uint64(0); id < c1.Total(); id += 97 {
		if c1.Object(id) != c2.Object(id) {
			t.Fatalf("object %d differs across identical catalogs", id)
		}
	}
}

func TestObjectSeedChangesSizes(t *testing.T) {
	a := NewCatalog(1000, 1)
	b := NewCatalog(1000, 2)
	diff := 0
	for id := uint64(0); id < 100; id++ {
		if a.Object(id).Size != b.Object(id).Size {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("different seeds changed only %d/100 sizes", diff)
	}
}

func TestObjectKinds(t *testing.T) {
	c := NewCatalog(1000, 3)
	static := c.Object(0)
	if static.Kind != KindStatic || !static.Cacheable() {
		t.Fatalf("object 0 = %+v, want static cacheable", static)
	}
	img := c.Object(c.CacheableTotal() - 1)
	if img.Kind != KindImage || !img.Cacheable() {
		t.Fatalf("last cacheable = %+v, want image", img)
	}
	dyn := c.Object(c.Total() - 1)
	if dyn.Kind != KindDynamic || dyn.Cacheable() {
		t.Fatalf("last object = %+v, want dynamic non-cacheable", dyn)
	}
}

func TestKindString(t *testing.T) {
	if KindStatic.String() != "static" || KindImage.String() != "image" ||
		KindDynamic.String() != "dynamic" || Kind(99).String() != "unknown" {
		t.Fatal("Kind.String wrong")
	}
}

func TestObjectSizeBounds(t *testing.T) {
	c := NewCatalog(5000, 11)
	f := func(seed uint64) bool {
		id := seed % c.Total()
		o := c.Object(id)
		switch o.Kind {
		case KindStatic:
			return o.Size >= 1<<10 && o.Size <= 60<<10
		case KindImage:
			return o.Size >= 2<<10 && o.Size <= 512<<10
		case KindDynamic:
			return o.Size >= 2<<10 && o.Size <= 80<<10
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectPanicsOutOfRange(t *testing.T) {
	c := NewCatalog(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ID did not panic")
		}
	}()
	c.Object(c.Total())
}

// Next draws the next referenced cacheable object: one Zipf draw, mapped
// to its object. The simulator draws by kind (NextOf); Next is the plain
// sampler the tests check NextOf against.
func (p *Popularity) Next() Object {
	return p.cat.Object(p.rankToID(p.zipf.Next()))
}

func TestPopularityInRangeAndCacheable(t *testing.T) {
	c := NewCatalog(2000, 5)
	p := NewPopularity(c, rng.New(9), 0.9)
	for i := 0; i < 20000; i++ {
		o := p.Next()
		if !o.Cacheable() {
			t.Fatalf("popularity sampler returned non-cacheable object %d", o.ID)
		}
		if o.ID >= c.CacheableTotal() {
			t.Fatalf("ID %d outside cacheable range", o.ID)
		}
	}
}

func TestPopularityIsSkewed(t *testing.T) {
	c := NewCatalog(2000, 5)
	p := NewPopularity(c, rng.New(10), 0.9)
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[p.Next().ID]++
	}
	// With Zipf popularity a small set of objects dominates: the most
	// popular single object should appear far above the uniform rate.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	uniform := float64(draws) / float64(c.CacheableTotal())
	if float64(max) < 20*uniform {
		t.Fatalf("top object count %d not skewed (uniform %.1f)", max, uniform)
	}
}

func TestRankToIDBijection(t *testing.T) {
	c := NewCatalog(500, 2)
	p := NewPopularity(c, rng.New(3), 0.8)
	seen := make(map[uint64]bool, p.n)
	for r := uint64(0); r < p.n; r++ {
		id := p.rankToID(r)
		if id >= p.n {
			t.Fatalf("rankToID(%d) = %d out of range", r, id)
		}
		if seen[id] {
			t.Fatalf("rankToID not injective: id %d repeated", id)
		}
		seen[id] = true
	}
}

// TestNextOfMatchesRejectionLoop pins NextOf to the loop it replaces:
// drawing with Next until the kind matches. Both samplers share a seed,
// so equal objects over 10^5 draws per kind mean NextOf consumes exactly
// the same Zipf draws and keeps exactly the same one each time.
func TestNextOfMatchesRejectionLoop(t *testing.T) {
	nextOfRef := func(p *Popularity, k Kind) Object {
		for {
			if o := p.Next(); o.Kind == k {
				return o
			}
		}
	}
	kinds := map[string][]Kind{
		"static": {KindStatic},
		"image":  {KindImage},
		"mixed":  {KindStatic, KindImage, KindImage},
	}
	for _, scale := range []int{1500, 10000} {
		for name, seq := range kinds {
			got := NewPopularity(NewCatalog(scale, 5), rng.New(9), 0.95)
			want := NewPopularity(NewCatalog(scale, 5), rng.New(9), 0.95)
			for i := 0; i < 100000; i++ {
				k := seq[i%len(seq)]
				if g, w := got.NextOf(k), nextOfRef(want, k); g != w {
					t.Fatalf("scale %d, %s draw %d: NextOf = %+v, rejection loop = %+v", scale, name, i, g, w)
				}
			}
		}
	}
}

func TestNextOfDynamicPanics(t *testing.T) {
	p := NewPopularity(NewCatalog(100, 1), rng.New(1), 0.9)
	defer func() {
		if recover() == nil {
			t.Fatal("NextOf(KindDynamic) did not panic")
		}
	}()
	p.NextOf(KindDynamic)
}

// TestSizeTableMatchesDerivation reads every object in a scattered order,
// each several times, and checks each read against a fresh derivation:
// the kind from the documented ID ranges and the size drawn from the
// per-object source. The first read fills the table; later reads must
// return the same object from it.
func TestSizeTableMatchesDerivation(t *testing.T) {
	for _, scale := range []int{1500, 10000} {
		c := NewCatalog(scale, 21)
		fresh := NewCatalog(scale, 21)
		nStatic, cacheable := uint64(scale)/10+50, c.CacheableTotal()
		src := rng.New(4)
		for i := uint64(0); i < 3*c.Total(); i++ {
			id := src.Uint64() % c.Total()
			if i < c.Total() {
				id = i * 7919 % c.Total() // every ID once, out of order
			}
			kind := KindDynamic
			switch {
			case id < nStatic:
				kind = KindStatic
			case id < cacheable:
				kind = KindImage
			}
			want := Object{ID: id, Kind: kind, Size: fresh.drawSize(id, kind)}
			if got := c.Object(id); got != want {
				t.Fatalf("scale %d read %d: Object(%d) = %+v, fresh derivation %+v", scale, i, id, got, want)
			}
		}
		for id, size := range c.sizes {
			if size < 1<<10 {
				t.Fatalf("scale %d: object %d left undrawn (size %d) after every ID was read", scale, id, size)
			}
		}
	}
}

func BenchmarkCatalogObject(b *testing.B) {
	c := NewCatalog(10000, 1)
	var sink Object
	for i := 0; i < b.N; i++ {
		sink = c.Object(uint64(i) % c.Total())
	}
	_ = sink
}

// TestReleasedCatalog checks both halves of the size table's recycling:
// a catalog built on a released table draws every size afresh, because
// Release cleared it, and a released catalog cannot be read, because its
// table now belongs to the next catalog.
func TestReleasedCatalog(t *testing.T) {
	want := make([]Object, 0, 64)
	ref := NewCatalog(500, 7)
	for id := uint64(0); id < ref.Total(); id += ref.Total() / 64 {
		want = append(want, ref.Object(id))
	}
	ref.Release()

	other := NewCatalog(500, 8) // another seed fills the recycled table
	for id := uint64(0); id < other.Total(); id++ {
		other.Object(id)
	}
	other.Release()
	again := NewCatalog(500, 7)
	for _, o := range want {
		if got := again.Object(o.ID); got != o {
			t.Fatalf("object %d on a recycled table = %+v, want %+v", o.ID, got, o)
		}
	}
	again.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("Object on a released catalog did not panic")
		}
	}()
	again.Object(0)
}

// BenchmarkPopularityNextOf draws one object of each kind the way a
// paper-scale TPC-W page does: static pages (5% of the ranks, about 33
// draws each) at theta 0.95, images at theta 0.90.
func BenchmarkPopularityNextOf(b *testing.B) {
	for _, c := range []struct {
		name  string
		kind  Kind
		theta float64
	}{{"static", KindStatic, 0.95}, {"image", KindImage, 0.90}} {
		b.Run(c.name, func(b *testing.B) {
			p := NewPopularity(NewCatalog(10000, 1), rng.New(1), c.theta)
			p.NextOf(c.kind) // build the table outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.NextOf(c.kind)
			}
		})
	}
}
