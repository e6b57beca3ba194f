package proxy

import (
	"testing"
	"testing/quick"

	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/webobj"
)

func defaultConfig() Config { return DecodeConfig(Space().DefaultConfig()) }

func obj(id uint64, size int64, kind webobj.Kind) webobj.Object {
	return webobj.Object{ID: id, Kind: kind, Size: size}
}

func TestSpaceDefaultsMatchTable3(t *testing.T) {
	cfg := defaultConfig()
	if cfg.CacheMemMB != 8 {
		t.Errorf("cache_mem default = %d, want 8", cfg.CacheMemMB)
	}
	if cfg.SwapLowPct != 90 || cfg.SwapHighPct != 95 {
		t.Errorf("swap watermarks = %d/%d, want 90/95", cfg.SwapLowPct, cfg.SwapHighPct)
	}
	if cfg.MaxObjectKB != 4096 || cfg.MinObjectKB != 0 {
		t.Errorf("object size limits = %d/%d, want 4096/0", cfg.MaxObjectKB, cfg.MinObjectKB)
	}
	if cfg.MaxObjectMemKB != 8 {
		t.Errorf("max_in_memory default = %d, want 8", cfg.MaxObjectMemKB)
	}
	if cfg.ObjectsPerBucket != 20 {
		t.Errorf("objects_per_bucket default = %d, want 20", cfg.ObjectsPerBucket)
	}
}

func TestDecodeConfigNormalizesWatermarks(t *testing.T) {
	sp := Space()
	c := sp.DefaultConfig()
	c[sp.IndexOf(ParamSwapLow)] = 96
	c[sp.IndexOf(ParamSwapHigh)] = 55
	cfg := DecodeConfig(c)
	if cfg.SwapLowPct > cfg.SwapHighPct {
		t.Fatalf("low %d > high %d after decode", cfg.SwapLowPct, cfg.SwapHighPct)
	}
}

func TestDecodeConfigPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short config")
		}
	}()
	DecodeConfig(param.Config{1, 2})
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(defaultConfig(), 1<<30)
	o := obj(1, 4<<10, webobj.KindStatic)
	if r, _ := c.Lookup(o); r != Miss {
		t.Fatalf("first lookup = %v, want miss", r)
	}
	if !c.Admit(o) {
		t.Fatal("admission refused")
	}
	r, _ := c.Lookup(o)
	if r != HitMem {
		t.Fatalf("second lookup = %v, want hit-mem (4KB <= 8KB mem limit)", r)
	}
	st := c.Stats()
	if st.Misses != 1 || st.HitsMem != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLargeObjectHitsDiskNotMem(t *testing.T) {
	c := New(defaultConfig(), 1<<30)
	o := obj(2, 100<<10, webobj.KindImage) // 100KB > 8KB mem limit
	c.Admit(o)
	if r, _ := c.Lookup(o); r != HitDisk {
		t.Fatalf("lookup = %v, want hit-disk", r)
	}
	if c.memBytes != 0 {
		t.Fatal("large object occupies memory level")
	}
}

func TestAdmissionSizeLimits(t *testing.T) {
	cfg := defaultConfig()
	cfg.MinObjectKB = 10
	cfg.MaxObjectKB = 100
	c := New(cfg, 1<<30)
	if c.Admit(obj(1, 5<<10, webobj.KindStatic)) {
		t.Fatal("under-min object admitted")
	}
	if c.Admit(obj(2, 200<<10, webobj.KindImage)) {
		t.Fatal("over-max object admitted")
	}
	if !c.Admit(obj(3, 50<<10, webobj.KindImage)) {
		t.Fatal("mid-size object rejected")
	}
}

func TestDynamicObjectsNeverCached(t *testing.T) {
	c := New(defaultConfig(), 1<<30)
	if c.Admit(obj(9, 4<<10, webobj.KindDynamic)) {
		t.Fatal("dynamic object admitted")
	}
}

func TestDuplicateAdmitIgnored(t *testing.T) {
	c := New(defaultConfig(), 1<<30)
	o := obj(1, 4<<10, webobj.KindStatic)
	c.Admit(o)
	if c.Admit(o) {
		t.Fatal("duplicate admit succeeded")
	}
	if c.count != 1 {
		t.Fatalf("count = %d, want 1", c.count)
	}
}

func TestMemoryEvictionLRU(t *testing.T) {
	cfg := defaultConfig()
	cfg.CacheMemMB = 4 // 4 MB memory level
	cfg.MaxObjectMemKB = 2048
	c := New(cfg, 1<<30)
	// Three 2MB objects: only two fit in memory.
	for id := uint64(1); id <= 3; id++ {
		c.Admit(obj(id, 2<<20, webobj.KindImage))
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Object 1 was LRU in memory → demoted to disk-only.
	if r, _ := c.Lookup(obj(1, 2<<20, webobj.KindImage)); r != HitDisk {
		t.Fatalf("LRU object = %v, want hit-disk after demotion", r)
	}
	if r, _ := c.Lookup(obj(3, 2<<20, webobj.KindImage)); r != HitMem {
		t.Fatalf("MRU object = %v, want hit-mem", r)
	}
}

func TestDiskWatermarkEviction(t *testing.T) {
	cfg := defaultConfig()
	cfg.SwapLowPct = 50
	cfg.SwapHighPct = 80
	c := New(cfg, 100<<10) // 100 KB disk
	// Insert 4KB objects until we cross the 80% watermark; the first time
	// eviction fires, usage must drop to the low watermark (hysteresis).
	checkedDrop := false
	for id := uint64(0); id < 25; id++ {
		before := c.dskBytes
		c.Admit(obj(id, 4<<10, webobj.KindStatic))
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.dskBytes > 80<<10 {
			t.Fatalf("disk bytes %d above high watermark", c.dskBytes)
		}
		if !checkedDrop && c.dskBytes < before { // this admit evicted
			if c.dskBytes > 50<<10 {
				t.Fatalf("disk bytes %d above low watermark right after eviction", c.dskBytes)
			}
			checkedDrop = true
		}
	}
	if !checkedDrop {
		t.Fatal("no disk evictions despite overflow")
	}
	if r, _ := c.Lookup(obj(0, 4<<10, webobj.KindStatic)); r != Miss {
		t.Fatalf("least recently admitted object = %v after evictions, want miss", r)
	}
}

func TestEvictionRemovesFromMemoryToo(t *testing.T) {
	cfg := defaultConfig()
	cfg.MaxObjectMemKB = 64
	cfg.SwapLowPct = 50
	cfg.SwapHighPct = 60
	c := New(cfg, 64<<10)
	for id := uint64(0); id < 20; id++ {
		c.Admit(obj(id, 4<<10, webobj.KindStatic))
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLookupPromotesLRU(t *testing.T) {
	cfg := defaultConfig()
	cfg.CacheMemMB = 4
	cfg.MaxObjectMemKB = 2048
	c := New(cfg, 1<<30)
	c.Admit(obj(1, 2<<20, webobj.KindImage))
	c.Admit(obj(2, 2<<20, webobj.KindImage))
	c.Lookup(obj(1, 2<<20, webobj.KindImage)) // promote 1
	c.Admit(obj(3, 2<<20, webobj.KindImage))  // evicts LRU = 2
	if r, _ := c.Lookup(obj(1, 2<<20, webobj.KindImage)); r != HitMem {
		t.Fatal("recently used object demoted")
	}
	if r, _ := c.Lookup(obj(2, 2<<20, webobj.KindImage)); r != HitDisk {
		t.Fatal("least recently used object kept in memory")
	}
}

func TestBucketScanCost(t *testing.T) {
	// Fewer objects per bucket → more buckets → shorter scans.
	many := defaultConfig()
	many.ObjectsPerBucket = 320
	few := defaultConfig()
	few.ObjectsPerBucket = 5
	cm := New(many, 1<<30)
	cf := New(few, 1<<30)
	for id := uint64(0); id < 5000; id++ {
		o := obj(id, 4<<10, webobj.KindStatic)
		cm.Admit(o)
		cf.Admit(o)
	}
	scanM, scanF := 0, 0
	for id := uint64(0); id < 5000; id++ {
		o := obj(id, 4<<10, webobj.KindStatic)
		_, n := cm.Lookup(o)
		scanM += n
		_, n = cf.Lookup(o)
		scanF += n
	}
	if scanM <= scanF {
		t.Fatalf("large buckets scanned %d <= small buckets %d", scanM, scanF)
	}
}

func TestMemoryFootprintGrowsWithCacheMem(t *testing.T) {
	small := defaultConfig()
	big := defaultConfig()
	big.CacheMemMB = 64
	if big.MemoryFootprint() <= small.MemoryFootprint() {
		t.Fatal("footprint not monotone in cache_mem")
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		cfg := defaultConfig()
		cfg.CacheMemMB = int64(4 + src.Intn(8))
		cfg.MaxObjectMemKB = int64(2 + 2*src.Intn(64))
		cfg.SwapLowPct = int64(50 + src.Intn(40))
		cfg.SwapHighPct = cfg.SwapLowPct + int64(src.Intn(7))
		c := New(cfg, int64(256<<10+src.Intn(1<<20)))
		for i := 0; i < 2000; i++ {
			id := uint64(src.Intn(500))
			size := int64(1<<10 + src.Intn(64<<10))
			kind := webobj.KindStatic
			if src.Bernoulli(0.3) {
				kind = webobj.KindImage
			}
			o := obj(id, size, kind)
			if r, _ := c.Lookup(o); r == Miss {
				c.Admit(o)
			}
		}
		return c.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHigherCacheMemImprovesMemHitRate(t *testing.T) {
	run := func(memMB int64) float64 {
		cfg := defaultConfig()
		cfg.CacheMemMB = memMB
		cfg.MaxObjectMemKB = 512
		c := New(cfg, 1<<31)
		cat := webobj.NewCatalog(2000, 1)
		pop := webobj.NewPopularity(cat, rng.New(42), 0.9)
		for i := 0; i < 30000; i++ {
			o := pop.NextOf(webobj.KindImage)
			if r, _ := c.Lookup(o); r == Miss {
				c.Admit(o)
			}
		}
		st := c.Stats()
		return float64(st.HitsMem) / float64(st.HitsMem+st.HitsDisk+st.Misses)
	}
	small, large := run(4), run(256)
	if large <= small {
		t.Fatalf("mem hit rate not improved by cache_mem: 4MB=%v 256MB=%v", small, large)
	}
}

func TestLookupResultString(t *testing.T) {
	if Miss.String() != "miss" || HitDisk.String() != "hit-disk" ||
		HitMem.String() != "hit-mem" || LookupResult(9).String() != "unknown" {
		t.Fatal("LookupResult.String wrong")
	}
}

func TestNewPanicsOnBadDisk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero disk capacity")
		}
	}()
	New(defaultConfig(), 0)
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := New(defaultConfig(), 1<<30)
	o := obj(1, 4<<10, webobj.KindStatic)
	c.Admit(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(o)
	}
}

func BenchmarkCacheAdmitEvict(b *testing.B) {
	cfg := defaultConfig()
	c := New(cfg, 10<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Admit(obj(uint64(i), 4<<10, webobj.KindStatic))
	}
}
