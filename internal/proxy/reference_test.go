package proxy

import (
	"testing"

	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/webobj"
)

// refEntry is a cached object in the store directory.
type refEntry struct {
	id    uint64
	size  int64
	inMem bool

	bucketNext *refEntry // singly-linked bucket chain

	// Intrusive LRU links; disk list covers all entries, mem list covers
	// in-memory entries only.
	diskPrev, diskNext *refEntry
	memPrev, memNext   *refEntry
}

// refList is an intrusive doubly-linked LRU list with sentinel-free ends.
type refList struct {
	head, tail *refEntry // head = most recent
	getPrev    func(*refEntry) *refEntry
	getNext    func(*refEntry) *refEntry
	setPrev    func(*refEntry, *refEntry)
	setNext    func(*refEntry, *refEntry)
}

func newRefDiskList() *refList {
	return &refList{
		getPrev: func(e *refEntry) *refEntry { return e.diskPrev },
		getNext: func(e *refEntry) *refEntry { return e.diskNext },
		setPrev: func(e, v *refEntry) { e.diskPrev = v },
		setNext: func(e, v *refEntry) { e.diskNext = v },
	}
}

func newRefMemList() *refList {
	return &refList{
		getPrev: func(e *refEntry) *refEntry { return e.memPrev },
		getNext: func(e *refEntry) *refEntry { return e.memNext },
		setPrev: func(e, v *refEntry) { e.memPrev = v },
		setNext: func(e, v *refEntry) { e.memNext = v },
	}
}

func (l *refList) pushFront(e *refEntry) {
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

func (l *refList) remove(e *refEntry) {
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

func (l *refList) moveFront(e *refEntry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// refCache is the pointer-linked proxy store: one heap-allocated refEntry
// per object, linked by pointers, with func-valued LRU accessors. It is the
// reference the slab store is checked against operation by operation
// (TestCacheMatchesReference).
type refCache struct {
	cfg      Config
	diskCap  int64
	buckets  []*refEntry
	memList  *refList
	diskList *refList
	memBytes int64
	dskBytes int64
	count    int
	stats    Stats
}

// newRefCache creates a reference cache.
func newRefCache(cfg Config, diskCapacity int64) *refCache {
	if diskCapacity <= 0 {
		panic("proxy: disk capacity must be positive")
	}
	return &refCache{
		cfg:      cfg,
		diskCap:  diskCapacity,
		buckets:  make([]*refEntry, cfg.bucketCount()),
		memList:  newRefMemList(),
		diskList: newRefDiskList(),
	}
}

func (c *refCache) bucketOf(id uint64) int {
	h := id * 0x9e3779b97f4a7c15
	return int(h % uint64(len(c.buckets)))
}

func (c *refCache) find(id uint64) (*refEntry, int) {
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
func (c *refCache) Lookup(o webobj.Object) (LookupResult, int) {
	e, scanned := c.find(o.ID)
	if e == nil {
		c.stats.Misses++
		return Miss, scanned
	}
	c.diskList.moveFront(e)
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
func (c *refCache) Admit(o webobj.Object) bool {
	if !o.Cacheable() {
		return false
	}
	sizeKB := o.Size >> 10
	if sizeKB < c.cfg.MinObjectKB || sizeKB > c.cfg.MaxObjectKB || o.Size > c.diskCap {
		return false
	}
	if e, _ := c.find(o.ID); e != nil {
		return false // already cached
	}
	e := &refEntry{id: o.ID, size: o.Size}
	b := c.bucketOf(o.ID)
	e.bucketNext = c.buckets[b]
	c.buckets[b] = e
	c.diskList.pushFront(e)
	c.dskBytes += e.size
	c.count++

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
func (c *refCache) enforceMem() {
	limit := c.cfg.CacheMemMB << 20
	for c.memBytes > limit && c.memList.tail != nil {
		e := c.memList.tail
		c.memList.remove(e)
		e.inMem = false
		c.memBytes -= e.size
	}
}

// enforceDisk applies the watermark policy: when usage exceeds the high
// watermark, evict LRU entries until usage drops to the low watermark.
func (c *refCache) enforceDisk() {
	high := c.diskCap / 100 * c.cfg.SwapHighPct
	if c.dskBytes <= high {
		return
	}
	low := c.diskCap / 100 * c.cfg.SwapLowPct
	for c.dskBytes > low && c.diskList.tail != nil {
		c.evict(c.diskList.tail)
	}
}

// evict removes an refEntry entirely (disk and, if present, memory).
func (c *refCache) evict(e *refEntry) {
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
}

// Stats returns a snapshot of the lookup counters.
func (c *refCache) Stats() Stats { return c.stats }

// TestCacheMatchesReference drives the slab store and refCache through
// the same random configurations and Lookup/Admit sequences and requires
// the same LookupResult, scan count and Admit result at every step, and
// the same Stats and byte counters after it. The configurations cover the
// whole parameter space, with store_objects_per_bucket pinned at both ends
// of its range (5 and 320) on some trials, and the disk and memory levels
// are small enough that both evict. Each store is released at the end of
// its trial, so later trials run on recycled storage. The test counts that
// the cases it is for came up: demotions from memory, evictions from
// disk, duplicate admits and chains scanned past their first entry.
func TestCacheMatchesReference(t *testing.T) {
	sp := Space()
	var demotions, evictions, duplicates, longScans int
	perBucket := map[int64]bool{}
	for trial := 0; trial < 60; trial++ {
		src := rng.New(uint64(9100 + trial))
		raw := make(param.Config, sp.Len())
		for i, d := range sp.Defs() {
			raw[i] = d.Min + d.Step*int64(src.Intn(int((d.Max-d.Min)/d.Step)+1))
		}
		switch trial % 3 {
		case 0:
			raw[sp.IndexOf(ParamObjectsPerBucket)] = 5
		case 1:
			raw[sp.IndexOf(ParamObjectsPerBucket)] = 320
		}
		cfg := DecodeConfig(raw)
		cfg.CacheMemMB = int64(4 + src.Intn(4))
		cfg.MinObjectKB = int64(2 * src.Intn(3))
		perBucket[cfg.ObjectsPerBucket] = true
		diskCap := int64(4<<20 + src.Intn(12<<20))

		c := New(cfg, diskCap)
		ref := newRefCache(cfg, diskCap)
		for step := 0; step < 3000; step++ {
			id := uint64(src.Intn(2500))
			kind := webobj.KindImage
			switch id % 5 {
			case 0:
				kind = webobj.KindStatic
			case 1:
				kind = webobj.KindDynamic
			}
			o := webobj.Object{ID: id, Kind: kind, Size: int64(1<<10) + int64(id*7919%1024)<<10}
			got, gotScan := c.Lookup(o)
			want, wantScan := ref.Lookup(o)
			if got != want || gotScan != wantScan {
				t.Fatalf("trial %d step %d id %d: Lookup = %v after %d scanned, reference %v after %d",
					trial, step, id, got, gotScan, want, wantScan)
			}
			if wantScan > 1 {
				longScans++
			}
			if want != Miss && src.Intn(8) != 0 {
				continue
			}
			memBefore, diskBefore := ref.memBytes, ref.dskBytes
			ga, wa := c.Admit(o), ref.Admit(o)
			if ga != wa {
				t.Fatalf("trial %d step %d id %d: Admit = %v, reference %v", trial, step, id, ga, wa)
			}
			if want != Miss {
				duplicates++
			}
			if wa && ref.memBytes < memBefore {
				demotions++
			}
			if wa && ref.dskBytes < diskBefore+o.Size {
				evictions++
			}
			if c.memBytes != ref.memBytes || c.dskBytes != ref.dskBytes || c.count != ref.count {
				t.Fatalf("trial %d step %d: mem %d disk %d count %d, reference %d %d %d",
					trial, step, c.memBytes, c.dskBytes, c.count, ref.memBytes, ref.dskBytes, ref.count)
			}
		}
		if c.Stats() != ref.Stats() {
			t.Fatalf("trial %d: Stats %+v, reference %+v", trial, c.Stats(), ref.Stats())
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c.Release()
	}
	for _, n := range []struct {
		name string
		n    int
	}{{"demotions from memory", demotions}, {"evictions from disk", evictions},
		{"duplicate admits", duplicates}, {"chains scanned past their head", longScans}} {
		if n.n == 0 {
			t.Errorf("no %s: the test did not exercise that case", n.name)
		}
	}
	if !perBucket[5] || !perBucket[320] {
		t.Errorf("store_objects_per_bucket covered %v, want both 5 and 320", perBucket)
	}
}

// TestReleasedCachePanics checks that a released store cannot be read: its
// storage now belongs to whichever cache the pool hands it to next.
func TestReleasedCachePanics(t *testing.T) {
	c := New(defaultConfig(), 1<<30)
	o := obj(1, 4<<10, webobj.KindStatic)
	c.Admit(o)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup on a released cache did not panic")
		}
	}()
	c.Lookup(o)
}
