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

// Space returns the proxy tier's tunable-parameter space with the paper's
// default values.
func Space() *param.Space {
	return param.MustSpace(
		param.Def{Name: ParamCacheMem, Min: 4, Max: 512, Default: 8, Step: 1, Unit: "MB"},
		param.Def{Name: ParamSwapLow, Min: 50, Max: 96, Default: 90, Step: 1, Unit: "%"},
		param.Def{Name: ParamSwapHigh, Min: 55, Max: 97, Default: 95, Step: 1, Unit: "%"},
		param.Def{Name: ParamMaxObjectSize, Min: 256, Max: 16384, Default: 4096, Step: 256, Unit: "KB"},
		param.Def{Name: ParamMinObjectSize, Min: 0, Max: 2048, Default: 0, Step: 2, Unit: "KB"},
		param.Def{Name: ParamMaxObjectSizeMem, Min: 2, Max: 4096, Default: 8, Step: 2, Unit: "KB"},
		param.Def{Name: ParamObjectsPerBucket, Min: 5, Max: 320, Default: 20, Step: 5},
	)
}

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
	sp := Space()
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

// entry is a cached object in the store directory.
type entry struct {
	id    uint64
	size  int64
	inMem bool

	bucketNext *entry // singly-linked bucket chain

	// Intrusive LRU links; disk list covers all entries, mem list covers
	// in-memory entries only.
	diskPrev, diskNext *entry
	memPrev, memNext   *entry
}

// lruList is an intrusive doubly-linked LRU list with sentinel-free ends.
type lruList struct {
	head, tail *entry // head = most recent
	getPrev    func(*entry) *entry
	getNext    func(*entry) *entry
	setPrev    func(*entry, *entry)
	setNext    func(*entry, *entry)
}

func newDiskList() *lruList {
	return &lruList{
		getPrev: func(e *entry) *entry { return e.diskPrev },
		getNext: func(e *entry) *entry { return e.diskNext },
		setPrev: func(e, v *entry) { e.diskPrev = v },
		setNext: func(e, v *entry) { e.diskNext = v },
	}
}

func newMemList() *lruList {
	return &lruList{
		getPrev: func(e *entry) *entry { return e.memPrev },
		getNext: func(e *entry) *entry { return e.memNext },
		setPrev: func(e, v *entry) { e.memPrev = v },
		setNext: func(e, v *entry) { e.memNext = v },
	}
}

func (l *lruList) pushFront(e *entry) {
	l.setPrev(e, nil)
	l.setNext(e, l.head)
	if l.head != nil {
		l.setPrev(l.head, e)
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) remove(e *entry) {
	prev, next := l.getPrev(e), l.getNext(e)
	if prev != nil {
		l.setNext(prev, next)
	} else {
		l.head = next
	}
	if next != nil {
		l.setPrev(next, prev)
	} else {
		l.tail = prev
	}
	l.setPrev(e, nil)
	l.setNext(e, nil)
}

func (l *lruList) moveFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// Stats counts cache activity since the last reset.
type Stats struct {
	HitsMem       uint64
	HitsDisk      uint64
	Misses        uint64
	Admitted      uint64
	RejectedSize  uint64 // admission declined by object-size limits
	EvictedDisk   uint64
	DemotedMem    uint64 // pushed out of memory but kept on disk
	BytesServed   int64
	DirectoryScan uint64 // total entries scanned during lookups
}

// Cache is the proxy's object store.
type Cache struct {
	cfg      Config
	diskCap  int64
	buckets  []*entry
	memList  *lruList
	diskList *lruList
	memBytes int64
	dskBytes int64
	count    int
	stats    Stats
}

// New creates a cache with the given configuration and disk capacity in
// bytes.
func New(cfg Config, diskCapacity int64) *Cache {
	if diskCapacity <= 0 {
		panic("proxy: disk capacity must be positive")
	}
	return &Cache{
		cfg:      cfg,
		diskCap:  diskCapacity,
		buckets:  make([]*entry, cfg.bucketCount()),
		memList:  newMemList(),
		diskList: newDiskList(),
	}
}

func (c *Cache) bucketOf(id uint64) int {
	h := id * 0x9e3779b97f4a7c15
	return int(h % uint64(len(c.buckets)))
}

func (c *Cache) find(id uint64) (*entry, int) {
	scanned := 0
	for e := c.buckets[c.bucketOf(id)]; e != nil; e = e.bucketNext {
		scanned++
		if e.id == id {
			return e, scanned
		}
	}
	return nil, scanned
}

// Lookup probes the cache for o, promoting hits to most-recently-used.
// It returns the hit class and the number of directory entries scanned
// (the caller charges CPU proportional to the scan).
func (c *Cache) Lookup(o webobj.Object) (LookupResult, int) {
	e, scanned := c.find(o.ID)
	c.stats.DirectoryScan += uint64(scanned)
	if e == nil {
		c.stats.Misses++
		return Miss, scanned
	}
	c.diskList.moveFront(e)
	c.stats.BytesServed += e.size
	if e.inMem {
		c.memList.moveFront(e)
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
		c.stats.RejectedSize++
		return false
	}
	if e, _ := c.find(o.ID); e != nil {
		return false // already cached
	}
	e := &entry{id: o.ID, size: o.Size}
	b := c.bucketOf(o.ID)
	e.bucketNext = c.buckets[b]
	c.buckets[b] = e
	c.diskList.pushFront(e)
	c.dskBytes += e.size
	c.count++
	c.stats.Admitted++

	if sizeKB <= c.cfg.MaxObjectMemKB {
		e.inMem = true
		c.memList.pushFront(e)
		c.memBytes += e.size
		c.enforceMem()
	}
	c.enforceDisk()
	return true
}

// enforceMem demotes least-recently-used in-memory entries until the
// memory cache fits in cache_mem.
func (c *Cache) enforceMem() {
	limit := c.cfg.CacheMemMB << 20
	for c.memBytes > limit && c.memList.tail != nil {
		e := c.memList.tail
		c.memList.remove(e)
		e.inMem = false
		c.memBytes -= e.size
		c.stats.DemotedMem++
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
	for c.dskBytes > low && c.diskList.tail != nil {
		c.evict(c.diskList.tail)
	}
}

// evict removes an entry entirely (disk and, if present, memory).
func (c *Cache) evict(e *entry) {
	c.diskList.remove(e)
	c.dskBytes -= e.size
	if e.inMem {
		c.memList.remove(e)
		c.memBytes -= e.size
		e.inMem = false
	}
	// Unlink from the bucket chain.
	b := c.bucketOf(e.id)
	if c.buckets[b] == e {
		c.buckets[b] = e.bucketNext
	} else {
		for p := c.buckets[b]; p != nil; p = p.bucketNext {
			if p.bucketNext == e {
				p.bucketNext = e.bucketNext
				break
			}
		}
	}
	e.bucketNext = nil
	c.count--
	c.stats.EvictedDisk++
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }
