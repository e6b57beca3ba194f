// Package proxy models the presentation tier: a Squid-like caching proxy
// whose behaviour is governed by the seven tunable parameters of Table 3 of
// the paper. The cache is real — a bucketed hash directory over a two-level
// (memory + disk) store with LRU replacement and watermark-driven disk
// eviction — so the parameters have the same qualitative effects as in
// Squid: cache_mem trades memory for fast hits, the object-size limits
// gate admission, store_objects_per_bucket changes directory scan costs,
// and the swap watermarks barely matter (as the paper observed).
package proxy

import (
	"fmt"

	"webharmony/internal/param"
	"webharmony/internal/recycle"
	"webharmony/internal/webobj"
)

// Parameter names, as in Table 3.
const (
	ParamCacheMem         = "cache_mem"                     // MB of memory cache
	ParamSwapLow          = "cache_swap_low"                // disk low watermark, %
	ParamSwapHigh         = "cache_swap_high"               // disk high watermark, %
	ParamMaxObjectSize    = "maximum_object_size"           // KB, admission cap
	ParamMinObjectSize    = "minimum_object_size"           // KB, admission floor
	ParamMaxObjectSizeMem = "maximum_object_size_in_memory" // KB
	ParamObjectsPerBucket = "store_objects_per_bucket"
)

// space is the tier's one parameter space. param.Space has no mutating
// method, so every caller shares it.
var space = param.MustSpace(
	param.Def{Name: ParamCacheMem, Min: 4, Max: 512, Default: 8, Step: 1, Unit: "MB"},
	param.Def{Name: ParamSwapLow, Min: 50, Max: 96, Default: 90, Step: 1, Unit: "%"},
	param.Def{Name: ParamSwapHigh, Min: 55, Max: 97, Default: 95, Step: 1, Unit: "%"},
	param.Def{Name: ParamMaxObjectSize, Min: 256, Max: 16384, Default: 4096, Step: 256, Unit: "KB"},
	param.Def{Name: ParamMinObjectSize, Min: 0, Max: 2048, Default: 0, Step: 2, Unit: "KB"},
	param.Def{Name: ParamMaxObjectSizeMem, Min: 2, Max: 4096, Default: 8, Step: 2, Unit: "KB"},
	param.Def{Name: ParamObjectsPerBucket, Min: 5, Max: 320, Default: 20, Step: 5},
)

// Space returns the proxy tier's tunable-parameter space with the paper's
// default values.
func Space() *param.Space { return space }

// Config is the decoded proxy configuration.
type Config struct {
	CacheMemMB       int64
	SwapLowPct       int64
	SwapHighPct      int64
	MaxObjectKB      int64
	MinObjectKB      int64
	MaxObjectMemKB   int64
	ObjectsPerBucket int64
}

// DecodeConfig interprets a param.Config laid out per Space().
func DecodeConfig(c param.Config) Config {
	sp := space
	if len(c) != sp.Len() {
		panic(fmt.Sprintf("proxy: config has %d values, want %d", len(c), sp.Len()))
	}
	get := func(name string) int64 { return c[sp.IndexOf(name)] }
	cfg := Config{
		CacheMemMB:       get(ParamCacheMem),
		SwapLowPct:       get(ParamSwapLow),
		SwapHighPct:      get(ParamSwapHigh),
		MaxObjectKB:      get(ParamMaxObjectSize),
		MinObjectKB:      get(ParamMinObjectSize),
		MaxObjectMemKB:   get(ParamMaxObjectSizeMem),
		ObjectsPerBucket: get(ParamObjectsPerBucket),
	}
	if cfg.SwapLowPct > cfg.SwapHighPct {
		cfg.SwapLowPct = cfg.SwapHighPct
	}
	return cfg
}

// MemoryFootprint returns the bytes of node memory the proxy consumes for
// its in-memory cache plus directory overhead.
func (c Config) MemoryFootprint() int64 {
	const perBucketOverhead = 256 // directory bucket headers
	buckets := c.bucketCount()
	return c.CacheMemMB<<20 + int64(buckets)*perBucketOverhead
}

func (c Config) bucketCount() int {
	// Size the directory for the expected object population of the disk
	// store, as Squid does from cache_dir parameters.
	const expectedObjects = 1 << 17
	b := expectedObjects / int(c.ObjectsPerBucket)
	if b < 1 {
		b = 1
	}
	return b
}

// LookupResult classifies a cache probe.
type LookupResult int

const (
	// Miss means the object is not cached; it must be fetched upstream.
	Miss LookupResult = iota
	// HitDisk means the object is cached on disk only.
	HitDisk
	// HitMem means the object is cached in memory.
	HitMem
)

// String returns the result name.
func (r LookupResult) String() string {
	switch r {
	case Miss:
		return "miss"
	case HitDisk:
		return "hit-disk"
	case HitMem:
		return "hit-mem"
	default:
		return "unknown"
	}
}

// entry is a cached object in the store's slab. Every link is a slot
// number into the slab, 0 meaning none (slot 0 is never used), so the
// slab holds no pointers and the garbage collector never scans it.
type entry struct {
	id   uint64
	size int64

	bucketNext int32 // bucket chain; also links free slots

	// Intrusive LRU links; disk list covers all entries, mem list covers
	// in-memory entries only.
	diskPrev, diskNext int32
	memPrev, memNext   int32

	inMem bool
}

// diskList and memList are the store's two intrusive LRU lists, threaded
// through the slab's disk and mem links; head is the most recent.
type diskList struct{ head, tail int32 }

func (l *diskList) pushFront(s []entry, i int32) {
	s[i].diskPrev = 0
	s[i].diskNext = l.head
	if l.head != 0 {
		s[l.head].diskPrev = i
	}
	l.head = i
	if l.tail == 0 {
		l.tail = i
	}
}

func (l *diskList) remove(s []entry, i int32) {
	prev, next := s[i].diskPrev, s[i].diskNext
	if prev != 0 {
		s[prev].diskNext = next
	} else {
		l.head = next
	}
	if next != 0 {
		s[next].diskPrev = prev
	} else {
		l.tail = prev
	}
	s[i].diskPrev, s[i].diskNext = 0, 0
}

func (l *diskList) moveFront(s []entry, i int32) {
	if l.head != i {
		l.remove(s, i)
		l.pushFront(s, i)
	}
}

type memList struct{ head, tail int32 }

func (l *memList) pushFront(s []entry, i int32) {
	s[i].memPrev = 0
	s[i].memNext = l.head
	if l.head != 0 {
		s[l.head].memPrev = i
	}
	l.head = i
	if l.tail == 0 {
		l.tail = i
	}
}

func (l *memList) remove(s []entry, i int32) {
	prev, next := s[i].memPrev, s[i].memNext
	if prev != 0 {
		s[prev].memNext = next
	} else {
		l.head = next
	}
	if next != 0 {
		s[next].memPrev = prev
	} else {
		l.tail = prev
	}
	s[i].memPrev, s[i].memNext = 0, 0
}

func (l *memList) moveFront(s []entry, i int32) {
	if l.head != i {
		l.remove(s, i)
		l.pushFront(s, i)
	}
}

// Stats counts lookups by outcome.
type Stats struct {
	HitsMem  uint64
	HitsDisk uint64
	Misses   uint64
}

// Cache is the proxy's object store: a slab of entries, a bucketed
// directory of chain heads and two LRU lists, all linked by slot number.
//
// A cache's storage comes from process-wide pools and goes back to them
// on Release, cleared, for the next cache to reuse (DESIGN.md §10). A
// released cache drops its slices, so any later use panics instead of
// reading storage another cache now owns.
type Cache struct {
	cfg      Config
	diskCap  int64
	slab     []entry // slot 0 unused, so 0 is the nil link; nil until the first admit
	dir      []int32 // bucket chain heads; 0 is an empty bucket
	free     int32   // head of the free-slot list, through bucketNext
	memList  memList
	diskList diskList
	memBytes int64
	dskBytes int64
	count    int
	stats    Stats
}

// slabs and dirs hold released caches' storage, cleared: a slab keeps
// only the unused slot 0 and a directory is all zero, every bucket empty.
var (
	slabs recycle.Pool[[]entry]
	dirs  recycle.Pool[[]int32]
)

// New creates a cache with the given configuration and disk capacity in
// bytes.
func New(cfg Config, diskCapacity int64) *Cache {
	if diskCapacity <= 0 {
		panic("proxy: disk capacity must be positive")
	}
	n := cfg.bucketCount()
	dir, _ := dirs.Get()
	if cap(dir) < n {
		dir = make([]int32, n)
	}
	return &Cache{cfg: cfg, diskCap: diskCapacity, dir: dir[:n]}
}

// Release clears the cache's storage and returns it to the pools. The
// cache must not be used afterwards. Storage more than four times the
// size this cache used is dropped instead, so one outlying configuration
// does not keep the pool, and the live heap, at its size (DESIGN.md §10).
func (c *Cache) Release() {
	if cap(c.dir) <= 4*len(c.dir) {
		clear(c.dir)
		dirs.Put(c.dir)
	}
	if c.slab != nil && cap(c.slab) <= 4*len(c.slab) {
		slabs.Put(c.slab[:1])
	}
	c.slab, c.dir = nil, nil
}

func (c *Cache) bucketOf(id uint64) int {
	h := id * 0x9e3779b97f4a7c15
	return int(h % uint64(len(c.dir)))
}

func (c *Cache) find(id uint64) (int32, int) {
	scanned := 0
	for i := c.dir[c.bucketOf(id)]; i != 0; i = c.slab[i].bucketNext {
		scanned++
		if c.slab[i].id == id {
			return i, scanned
		}
	}
	return 0, scanned
}

// Lookup probes the cache for o, promoting hits to most-recently-used.
// It returns the hit class and the number of directory entries scanned
// (the caller charges CPU proportional to the scan).
func (c *Cache) Lookup(o webobj.Object) (LookupResult, int) {
	i, scanned := c.find(o.ID)
	if i == 0 {
		c.stats.Misses++
		return Miss, scanned
	}
	c.diskList.moveFront(c.slab, i)
	if c.slab[i].inMem {
		c.memList.moveFront(c.slab, i)
		c.stats.HitsMem++
		return HitMem, scanned
	}
	c.stats.HitsDisk++
	return HitDisk, scanned
}

// Admit inserts a fetched object into the cache, applying the size-based
// admission policy and evicting per the watermarks. Objects already cached
// or not cacheable are ignored. It reports whether the object was admitted.
func (c *Cache) Admit(o webobj.Object) bool {
	if !o.Cacheable() {
		return false
	}
	sizeKB := o.Size >> 10
	if sizeKB < c.cfg.MinObjectKB || sizeKB > c.cfg.MaxObjectKB || o.Size > c.diskCap {
		return false
	}
	if i, _ := c.find(o.ID); i != 0 {
		return false // already cached
	}
	b := c.bucketOf(o.ID)
	i := c.alloc(entry{id: o.ID, size: o.Size, bucketNext: c.dir[b]})
	c.dir[b] = i
	c.diskList.pushFront(c.slab, i)
	c.dskBytes += o.Size
	c.count++

	if sizeKB <= c.cfg.MaxObjectMemKB {
		c.slab[i].inMem = true
		c.memList.pushFront(c.slab, i)
		c.memBytes += o.Size
		c.enforceMem()
	}
	c.enforceDisk()
	return true
}

// alloc stores e in a free slot, or in a new one at the slab's end, and
// returns the slot. The slab comes from the pool at the first admit, so a
// store that never admits (a lab that only stages configurations) takes
// none.
func (c *Cache) alloc(e entry) int32 {
	if i := c.free; i != 0 {
		c.free = c.slab[i].bucketNext
		c.slab[i] = e
		return i
	}
	if c.slab == nil {
		var ok bool
		if c.slab, ok = slabs.Get(); !ok {
			c.slab = make([]entry, 1, 256)
		}
	}
	c.slab = append(c.slab, e)
	return int32(len(c.slab) - 1)
}

// enforceMem demotes least-recently-used in-memory entries until the
// memory cache fits in cache_mem.
func (c *Cache) enforceMem() {
	limit := c.cfg.CacheMemMB << 20
	for c.memBytes > limit && c.memList.tail != 0 {
		i := c.memList.tail
		c.memList.remove(c.slab, i)
		c.slab[i].inMem = false
		c.memBytes -= c.slab[i].size
	}
}

// enforceDisk applies the watermark policy: when usage exceeds the high
// watermark, evict LRU entries until usage drops to the low watermark.
func (c *Cache) enforceDisk() {
	high := c.diskCap / 100 * c.cfg.SwapHighPct
	if c.dskBytes <= high {
		return
	}
	low := c.diskCap / 100 * c.cfg.SwapLowPct
	for c.dskBytes > low && c.diskList.tail != 0 {
		c.evict(c.diskList.tail)
	}
}

// evict removes an entry entirely (disk and, if present, memory), unlinks
// it from its bucket chain in place and puts its slot on the free list.
func (c *Cache) evict(i int32) {
	e := &c.slab[i]
	c.diskList.remove(c.slab, i)
	c.dskBytes -= e.size
	if e.inMem {
		c.memList.remove(c.slab, i)
		c.memBytes -= e.size
		e.inMem = false
	}
	b := c.bucketOf(e.id)
	if c.dir[b] == i {
		c.dir[b] = e.bucketNext
	} else {
		for p := c.dir[b]; p != 0; p = c.slab[p].bucketNext {
			if c.slab[p].bucketNext == i {
				c.slab[p].bucketNext = e.bucketNext
				break
			}
		}
	}
	e.bucketNext = c.free
	c.free = i
	c.count--
}

// Stats returns a snapshot of the lookup counters.
func (c *Cache) Stats() Stats { return c.stats }
