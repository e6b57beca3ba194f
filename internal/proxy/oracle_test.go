package proxy

import (
	"fmt"
	"testing"
	"testing/quick"

	"webharmony/internal/rng"
	"webharmony/internal/webobj"
)

// oracle is a deliberately naive reference implementation of the cache's
// semantics: a recency-ordered slice (most recent first) of disk-resident
// entries plus an in-memory flag. It trades efficiency for obviousness so
// the production bucketed/intrusive-list implementation can be checked
// against it operation by operation.
type oracle struct {
	cfg     Config
	diskCap int64
	// entries[0] is the most recently used.
	entries []oracleEntry
}

type oracleEntry struct {
	id    uint64
	size  int64
	inMem bool
}

func newOracle(cfg Config, diskCap int64) *oracle {
	return &oracle{cfg: cfg, diskCap: diskCap}
}

func (o *oracle) find(id uint64) int {
	for i, e := range o.entries {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (o *oracle) memBytes() int64 {
	var b int64
	for _, e := range o.entries {
		if e.inMem {
			b += e.size
		}
	}
	return b
}

func (o *oracle) diskBytes() int64 {
	var b int64
	for _, e := range o.entries {
		b += e.size
	}
	return b
}

// lookup mirrors Cache.Lookup: classify, then promote to MRU.
func (o *oracle) lookup(obj webobj.Object) LookupResult {
	i := o.find(obj.ID)
	if i < 0 {
		return Miss
	}
	e := o.entries[i]
	copy(o.entries[1:i+1], o.entries[:i])
	o.entries[0] = e
	if e.inMem {
		return HitMem
	}
	return HitDisk
}

// admit mirrors Cache.Admit.
func (o *oracle) admit(obj webobj.Object) bool {
	if !obj.Cacheable() {
		return false
	}
	sizeKB := obj.Size >> 10
	if sizeKB < o.cfg.MinObjectKB || sizeKB > o.cfg.MaxObjectKB || obj.Size > o.diskCap {
		return false
	}
	if o.find(obj.ID) >= 0 {
		return false
	}
	e := oracleEntry{id: obj.ID, size: obj.Size, inMem: sizeKB <= o.cfg.MaxObjectMemKB}
	o.entries = append([]oracleEntry{e}, o.entries...)
	// Memory limit: demote LRU in-memory entries.
	limit := o.cfg.CacheMemMB << 20
	for o.memBytes() > limit {
		for i := len(o.entries) - 1; i >= 0; i-- {
			if o.entries[i].inMem {
				o.entries[i].inMem = false
				break
			}
		}
	}
	// Disk watermarks: evict LRU entirely.
	high := o.diskCap / 100 * o.cfg.SwapHighPct
	if o.diskBytes() > high {
		low := o.diskCap / 100 * o.cfg.SwapLowPct
		for o.diskBytes() > low && len(o.entries) > 0 {
			o.entries = o.entries[:len(o.entries)-1]
		}
	}
	return true
}

// TestCacheMatchesOracle drives the production cache and the oracle with
// an identical random operation stream and requires identical observable
// behaviour at every step.
func TestCacheMatchesOracle(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		cfg := DecodeConfig(Space().DefaultConfig())
		cfg.CacheMemMB = int64(4 + src.Intn(12))
		cfg.MaxObjectMemKB = int64(2 + 2*src.Intn(40))
		cfg.MinObjectKB = int64(2 * src.Intn(4))
		cfg.MaxObjectKB = int64(256 + 256*src.Intn(8))
		cfg.SwapLowPct = int64(50 + src.Intn(30))
		cfg.SwapHighPct = cfg.SwapLowPct + int64(src.Intn(10))
		diskCap := int64(128<<10 + src.Intn(2<<20))

		c := New(cfg, diskCap)
		o := newOracle(cfg, diskCap)

		for step := 0; step < 1500; step++ {
			id := uint64(src.Intn(300))
			// Deterministic per-ID size so re-references agree.
			size := int64(1<<10) + int64(id%97)*1024
			kind := webobj.KindStatic
			switch id % 3 {
			case 1:
				kind = webobj.KindImage
			case 2:
				kind = webobj.KindDynamic
			}
			obj := webobj.Object{ID: id, Kind: kind, Size: size}
			got, _ := c.Lookup(obj)
			want := o.lookup(obj)
			if got != want {
				t.Logf("seed %d step %d id %d: lookup %v, oracle %v", seed, step, id, got, want)
				return false
			}
			if got == Miss {
				ga := c.Admit(obj)
				wa := o.admit(obj)
				if ga != wa {
					t.Logf("seed %d step %d id %d: admit %v, oracle %v", seed, step, id, ga, wa)
					return false
				}
			}
			if c.memBytes != o.memBytes() || c.dskBytes != o.diskBytes() {
				t.Logf("seed %d step %d: bytes mem %d/%d disk %d/%d",
					seed, step, c.memBytes, o.memBytes(), c.dskBytes, o.diskBytes())
				return false
			}
		}
		return c.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants verifies the cache's internal consistency: list sums
// and counts agree with the byte and object counters, and both levels fit
// their capacities.
func (c *Cache) checkInvariants() error {
	var memBytes, diskBytes int64
	var memCount, diskCount, bucketCount int
	for i := c.memList.head; i != 0; i = c.slab[i].memNext {
		if !c.slab[i].inMem {
			return fmt.Errorf("mem list contains non-mem entry %d", c.slab[i].id)
		}
		memBytes += c.slab[i].size
		memCount++
	}
	for i := c.diskList.head; i != 0; i = c.slab[i].diskNext {
		diskBytes += c.slab[i].size
		diskCount++
	}
	for _, b := range c.dir {
		for i := b; i != 0; i = c.slab[i].bucketNext {
			bucketCount++
		}
	}
	freeCount := 0
	for i := c.free; i != 0; i = c.slab[i].bucketNext {
		freeCount++
	}
	if memBytes != c.memBytes {
		return fmt.Errorf("memBytes %d != list sum %d", c.memBytes, memBytes)
	}
	if diskBytes != c.dskBytes {
		return fmt.Errorf("diskBytes %d != list sum %d", c.dskBytes, diskBytes)
	}
	if diskCount != c.count || bucketCount != c.count {
		return fmt.Errorf("count %d, disk list %d, buckets %d", c.count, diskCount, bucketCount)
	}
	if slots := max(len(c.slab)-1, 0); c.count+freeCount != slots {
		return fmt.Errorf("%d entries and %d free slots in a slab of %d slots", c.count, freeCount, slots)
	}
	if memCount > diskCount {
		return fmt.Errorf("memory level larger than disk level")
	}
	if c.memBytes > c.cfg.CacheMemMB<<20 {
		return fmt.Errorf("memory over capacity: %d > %d", c.memBytes, c.cfg.CacheMemMB<<20)
	}
	if c.dskBytes > c.diskCap {
		return fmt.Errorf("disk over capacity: %d > %d", c.dskBytes, c.diskCap)
	}
	return nil
}
