// Package webobj models the population of web objects served by the
// simulated TPC-W store: static pages, product images and dynamically
// generated pages. Object sizes are deterministic functions of the object
// ID, drawn on an object's first reference and kept in a per-catalog table
// of four bytes per object, and popularity follows a Zipf distribution as
// observed for web traffic.
package webobj

import (
	"webharmony/internal/recycle"
	"webharmony/internal/rng"
)

// Kind classifies an object by how it is produced and whether a proxy may
// cache it.
type Kind int

const (
	// KindStatic is a fixed HTML page or style asset; always cacheable.
	KindStatic Kind = iota
	// KindImage is a product image; cacheable and comparatively large.
	KindImage
	// KindDynamic is generated per request by the application server
	// (possibly with database queries); never cacheable.
	KindDynamic
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindImage:
		return "image"
	case KindDynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// Object is one addressable web object.
type Object struct {
	ID   uint64
	Kind Kind
	Size int64 // bytes
}

// Cacheable reports whether a proxy is allowed to cache the object.
func (o Object) Cacheable() bool { return o.Kind != KindDynamic }

// Catalog describes the object population for a store of a given TPC-W
// scale factor (number of items). Objects are identified by dense IDs:
//
//	[0, nStatic)                      static pages
//	[nStatic, nStatic+nImages)        product images (several per item)
//	[nStatic+nImages, Total)          dynamic page identities
//
// A Catalog is not safe for concurrent use: Object fills its size table.
type Catalog struct {
	nStatic  uint64
	nImages  uint64
	nDynamic uint64
	sizeSeed uint64
	// sizes[id] is object id's size in bytes once drawn, 0 before: every
	// size is at least 1 KB and at most 512 KB, so 0 is free as the mark
	// and int32 holds every size.
	sizes []int32
}

// sizeTables holds released catalogs' size tables, all zero: a recycled
// table must read "not drawn yet" for every ID.
var sizeTables recycle.Pool[[]int32]

// ImagesPerItem is the number of product images per catalog item
// (thumbnail and full size, per the TPC-W page layouts).
const ImagesPerItem = 2

// NewCatalog creates the object population for a store selling scale items
// (the paper uses scale = 10,000). sizeSeed makes object sizes
// reproducible.
func NewCatalog(scale int, sizeSeed uint64) *Catalog {
	if scale <= 0 {
		panic("webobj: scale must be positive")
	}
	c := &Catalog{
		nStatic:  uint64(scale)/10 + 50, // site chrome + per-category pages
		nImages:  uint64(scale) * ImagesPerItem,
		nDynamic: uint64(scale) + 1000, // product-detail and result pages
		sizeSeed: sizeSeed,
	}
	sizes, _ := sizeTables.Get()
	if n := int(c.Total()); cap(sizes) >= n {
		c.sizes = sizes[:n]
	} else {
		c.sizes = make([]int32, n)
	}
	return c
}

// Release clears the size table and returns it to the pool for the next
// catalog. The catalog must not be used afterwards: Object panics.
func (c *Catalog) Release() {
	clear(c.sizes)
	sizeTables.Put(c.sizes)
	c.sizes = nil
}

// Total returns the total number of distinct objects.
func (c *Catalog) Total() uint64 { return c.nStatic + c.nImages + c.nDynamic }

// CacheableTotal returns the number of proxy-cacheable objects.
func (c *Catalog) CacheableTotal() uint64 { return c.nStatic + c.nImages }

// Object returns the object with the given ID. Sizes are deterministic:
// the same (catalog seed, ID) always yields the same size. The size is
// drawn on the first call for an ID and read from the table afterwards.
func (c *Catalog) Object(id uint64) Object {
	if id >= uint64(len(c.sizes)) {
		panic("webobj: object ID out of range")
	}
	kind := c.kind(id)
	size := c.sizes[id]
	if size == 0 {
		size = int32(c.drawSize(id, kind))
		c.sizes[id] = size
	}
	return Object{ID: id, Kind: kind, Size: int64(size)}
}

// kind returns the kind of the object with the given (in-range) ID.
func (c *Catalog) kind(id uint64) Kind {
	switch {
	case id < c.nStatic:
		return KindStatic
	case id < c.nStatic+c.nImages:
		return KindImage
	default:
		return KindDynamic
	}
}

// drawSize derives an object's size from a per-object random source
// seeded by the catalog seed and the ID.
func (c *Catalog) drawSize(id uint64, kind Kind) int64 {
	src := rng.Seeded(c.sizeSeed ^ (id * 0x9e3779b97f4a7c15) ^ 0xC0FFEE)
	switch kind {
	case KindStatic:
		// Static pages: 2–30 KB, log-normal-ish.
		return clampSize(int64(src.LogNormal(8.8, 0.6)), 1<<10, 60<<10) // median ≈ 6.6 KB
	case KindImage:
		// Images: heavy-tailed Pareto, 2 KB – 512 KB (thumbnails dominate).
		return clampSize(int64(src.Pareto(3<<10, 1.5)), 2<<10, 512<<10)
	default:
		// Dynamic pages: 4–40 KB of generated HTML.
		return clampSize(int64(src.LogNormal(9.3, 0.5)), 2<<10, 80<<10) // median ≈ 11 KB
	}
}

func clampSize(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Popularity draws cacheable object references with Zipf popularity. The
// permutation of ranks to IDs is derived from the seed so that popular
// objects are spread across static pages and images.
type Popularity struct {
	cat  *Catalog
	zipf *rng.Zipf
	// rank → object id: x ↦ (a·x + b) & mask, cycle-walked below n
	a, b uint64
	mask uint64 // pow2At(n) - 1
	n    uint64
	// static is the quick-reject filter over the static pages' ranks,
	// built by the first NextOf(KindStatic).
	static *rng.ZipfFilter
}

// NewPopularity creates a Zipf popularity sampler over the catalog's
// cacheable objects with exponent theta (use ≈ 0.8–0.99 for web traffic).
func NewPopularity(cat *Catalog, src *rng.Source, theta float64) *Popularity {
	n := cat.CacheableTotal()
	p := &Popularity{
		cat:  cat,
		zipf: rng.NewZipf(src, n, theta),
		mask: pow2At(n) - 1,
		n:    n,
	}
	// Rank → ID permutation: with a odd, x ↦ (a·x + b) mod m is a
	// bijection on [0, m) for m a power of two. Taking m as the smallest
	// power of two >= n and re-applying the map until the result falls
	// below n (cycle-walking) restricts it to a bijection on [0, n).
	p.a = src.Uint64() | 1
	p.b = src.Uint64()
	return p
}

// pow2At returns the smallest power of two >= n.
func pow2At(n uint64) uint64 {
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// rankToID maps a popularity rank to an object ID bijectively using an
// affine permutation over the next power of two with cycle-walking.
func (p *Popularity) rankToID(rank uint64) uint64 {
	x := rank
	for {
		x = (x*p.a + p.b) & p.mask
		if x < p.n {
			return x
		}
	}
}

// NextOf draws references until one of kind k comes up and returns it.
// The rejected draws are tested by ID range and never look up a size. k
// must be cacheable; the sampler never draws a dynamic object.
//
// Static pages hold about 5% of the ranks, so most static draws miss: they
// go through a quick-reject filter over the static ranks (rng.ZipfFilter),
// which drops most misses after one Uint64 and draws exactly the same
// objects. Images hold the other 95% and keep the plain loop.
func (p *Popularity) NextOf(k Kind) Object {
	switch k {
	case KindDynamic:
		panic("webobj: NextOf(KindDynamic): the sampler draws cacheable objects only")
	case KindStatic:
		if p.static == nil {
			p.static = p.zipf.Filter(func(rank uint64) bool { return p.cat.kind(p.rankToID(rank)) == KindStatic })
		}
		for {
			if id := p.rankToID(p.zipf.NextFiltered(p.static)); p.cat.kind(id) == KindStatic {
				return p.cat.Object(id)
			}
		}
	}
	for {
		id := p.rankToID(p.zipf.Next())
		if p.cat.kind(id) == k {
			return p.cat.Object(id)
		}
	}
}
