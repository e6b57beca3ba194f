package db

import (
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
)

func newServer(cfg Config) (*simnet.Engine, *Server) {
	eng := &simnet.Engine{}
	node := cluster.NewNode(eng, 0, cluster.TierDB, cluster.DefaultHardware())
	return eng, New(eng, node, cfg, DefaultCostModel(), rng.New(7))
}

func defaults() Config { return DecodeConfig(Space().DefaultConfig()) }

func TestSpaceDefaultsMatchTable3(t *testing.T) {
	cfg := defaults()
	if cfg.BinlogCacheSize != 32768 {
		t.Errorf("binlog_cache_size = %d, want 32768", cfg.BinlogCacheSize)
	}
	if cfg.DelayedInsertLimit != 100 {
		t.Errorf("delayed_insert_limit = %d, want 100", cfg.DelayedInsertLimit)
	}
	if cfg.MaxConnections != 101 { // 100 rounded onto the step-25 lattice
		t.Errorf("max_connections = %d, want 101", cfg.MaxConnections)
	}
	if cfg.DelayedQueueSize != 1000 {
		t.Errorf("delayed_queue_size = %d, want 1000", cfg.DelayedQueueSize)
	}
	if cfg.JoinBufferSize != 8388608 {
		t.Errorf("join_buffer_size = %d, want 8388608", cfg.JoinBufferSize)
	}
	if cfg.NetBufferLength != 16384 {
		t.Errorf("net_buffer_length = %d, want 16384", cfg.NetBufferLength)
	}
	if cfg.TableCache != 64 {
		t.Errorf("table_cache = %d, want 64", cfg.TableCache)
	}
	if cfg.ThreadConcurrency != 10 {
		t.Errorf("thread_con = %d, want 10", cfg.ThreadConcurrency)
	}
	if cfg.ThreadStack != 65536 {
		t.Errorf("thread_stack = %d, want 65536", cfg.ThreadStack)
	}
}

func TestDecodeConfigPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short config")
		}
	}()
	DecodeConfig(param.Config{1})
}

func TestQueryKindString(t *testing.T) {
	if QueryRead.String() != "read" || QueryJoin.String() != "join" ||
		QueryWrite.String() != "write" || QueryKind(9).String() != "unknown" {
		t.Fatal("QueryKind.String wrong")
	}
}

func TestSimpleQueryCompletes(t *testing.T) {
	eng, s := newServer(defaults())
	var ok bool
	calls := 0
	s.Query(QueryRead, 4<<10, func(o bool) { ok = o; calls++ })
	eng.Run()
	if !ok || calls != 1 {
		t.Fatalf("read query: %d callbacks, ok=%v; want one successful", calls, ok)
	}
}

func TestConnectionLimitRejects(t *testing.T) {
	cfg := defaults()
	cfg.MaxConnections = 1
	cfg.ThreadConcurrency = 1
	eng, s := newServer(cfg)
	// Backlog equals max_connections (1), so the third concurrent query
	// must be rejected.
	rejected, completed := 0, 0
	for i := 0; i < 3; i++ {
		s.Query(QueryJoin, 64<<10, func(ok bool) {
			if ok {
				completed++
			} else {
				rejected++
			}
		})
	}
	if rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	eng.Run()
	if completed != 2 {
		t.Fatalf("completed = %d, want 2", completed)
	}
}

func TestThreadConcurrencyLimitsParallelism(t *testing.T) {
	// With 1 thread, N queries serialize; with many threads they overlap.
	run := func(threads int64) float64 {
		cfg := defaults()
		cfg.ThreadConcurrency = threads
		cfg.MaxConnections = 1001
		eng, s := newServer(cfg)
		remaining := 50
		for i := 0; i < 50; i++ {
			s.Query(QueryJoin, 32<<10, func(bool) { remaining-- })
		}
		eng.Run()
		if remaining != 0 {
			t.Fatalf("%d queries never completed", remaining)
		}
		return eng.Now()
	}
	serial, parallel := run(1), run(64)
	if parallel >= serial {
		t.Fatalf("thread_con had no effect: 1→%v, 64→%v", serial, parallel)
	}
}

func TestSmallTableCacheCausesReopens(t *testing.T) {
	small := defaults()
	small.TableCache = 16
	large := defaults()
	large.TableCache = 1024
	engS, sS := newServer(small)
	engL, sL := newServer(large)
	for i := 0; i < 500; i++ {
		sS.Query(QueryRead, 4<<10, func(bool) {})
		sL.Query(QueryRead, 4<<10, func(bool) {})
	}
	engS.Run()
	engL.Run()
	// Re-opens cost CPU and a disk read: the small-cache run takes longer.
	if engS.Now() <= engL.Now() {
		t.Fatalf("small table cache did not slow the server: %v <= %v", engS.Now(), engL.Now())
	}
	if p := sL.tableReopenProb(); p != 0 {
		t.Fatalf("large table cache re-opens with probability %v", p)
	}
}

func TestSmallBinlogCacheSpills(t *testing.T) {
	small := defaults()
	small.BinlogCacheSize = 4096
	large := defaults()
	large.BinlogCacheSize = 1048576
	engS, sS := newServer(small)
	engL, sL := newServer(large)
	for i := 0; i < 300; i++ {
		sS.Query(QueryWrite, 2<<10, func(bool) {})
		sL.Query(QueryWrite, 2<<10, func(bool) {})
	}
	engS.Run()
	engL.Run()
	// Spills cost disk time: the small-cache run takes longer.
	if engS.Now() <= engL.Now() {
		t.Fatalf("binlog spills did not slow the server: %v <= %v", engS.Now(), engL.Now())
	}
}

func TestDelayedQueueAmortizesInsertIO(t *testing.T) {
	small := defaults()
	small.DelayedQueueSize = 100
	small.DelayedInsertLimit = 1000
	large := defaults()
	large.DelayedQueueSize = 10000
	large.DelayedInsertLimit = 1000
	engS, sS := newServer(small)
	engL, sL := newServer(large)
	for i := 0; i < 300; i++ {
		sS.Query(QueryWrite, 2<<10, func(bool) {})
		sL.Query(QueryWrite, 2<<10, func(bool) {})
	}
	engS.Run()
	engL.Run()
	if engL.Now() >= engS.Now() {
		t.Fatalf("larger delayed queue did not reduce write time: %v >= %v", engL.Now(), engS.Now())
	}
}

func TestJoinBufferBarelyAffectsPerformance(t *testing.T) {
	// The paper's finding: join_buffer_size has no performance impact
	// (but it does cost memory). Allow at most a 5% completion-time delta.
	run := func(jb int64) float64 {
		cfg := defaults()
		cfg.JoinBufferSize = jb
		eng, s := newServer(cfg)
		for i := 0; i < 300; i++ {
			s.Query(QueryJoin, 32<<10, func(bool) {})
		}
		eng.Run()
		return eng.Now()
	}
	small, large := run(407552), run(8388608)
	ratio := small / large
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("join_buffer_size affected performance too much: ratio %v", ratio)
	}
	// ... but it must dominate the memory footprint difference.
	a := defaults()
	a.JoinBufferSize = 407552
	b := defaults()
	b.JoinBufferSize = 8388608
	if b.MemoryFootprint()-a.MemoryFootprint() < 30<<20 {
		t.Fatal("join buffer memory cost too small to matter")
	}
}

func TestMemoryFootprintScalesWithThreadsAndConnections(t *testing.T) {
	base := defaults()
	more := defaults()
	more.ThreadConcurrency = 100
	more.MaxConnections = 1001
	if more.MemoryFootprint() <= base.MemoryFootprint() {
		t.Fatal("footprint not monotone")
	}
}

func TestNetBufferEfficiency(t *testing.T) {
	small := defaults()
	small.NetBufferLength = 1024
	large := defaults()
	large.NetBufferLength = 65536
	_, s1 := newServer(small)
	_, s2 := newServer(large)
	if s2.netEfficiency() >= s1.netEfficiency() {
		t.Fatal("larger net buffer not more efficient")
	}
}

func TestInsertBatchFactorMonotone(t *testing.T) {
	cfg := defaults()
	cfg.DelayedInsertLimit = 1000
	prev := 0.0
	for _, q := range []int64{100, 400, 1600, 6400} {
		cfg.DelayedQueueSize = q
		_, s := newServer(cfg)
		f := s.insertBatchFactor()
		if f < prev {
			t.Fatalf("batch factor not monotone at queue=%d: %v < %v", q, f, prev)
		}
		prev = f
	}
	// delayed_insert_limit caps the batch.
	cfg.DelayedQueueSize = 10000
	cfg.DelayedInsertLimit = 10
	_, s := newServer(cfg)
	capped := s.insertBatchFactor()
	cfg.DelayedInsertLimit = 1000
	_, s2 := newServer(cfg)
	if capped >= s2.insertBatchFactor() {
		t.Fatal("delayed_insert_limit did not cap batching")
	}
}

func BenchmarkQueryRead(b *testing.B) {
	eng, s := newServer(defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(QueryRead, 4<<10, func(bool) {})
		eng.Run()
	}
}
