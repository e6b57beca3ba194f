package appserver

import (
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/param"
	"webharmony/internal/simnet"
)

func newServer(cfg Config) (*simnet.Engine, *Server) {
	eng := &simnet.Engine{}
	node := cluster.NewNode(eng, 0, cluster.TierApp, cluster.DefaultHardware())
	return eng, New(eng, node, cfg, DefaultCostModel())
}

func defaults() Config { return DecodeConfig(Space().DefaultConfig()) }

func TestSpaceDefaultsMatchTable3(t *testing.T) {
	cfg := defaults()
	if cfg.MinProcessors != 5 || cfg.MaxProcessors != 20 {
		t.Errorf("processors = %d/%d, want 5/20", cfg.MinProcessors, cfg.MaxProcessors)
	}
	if cfg.AcceptCount != 10 {
		t.Errorf("acceptCount = %d, want 10", cfg.AcceptCount)
	}
	if cfg.BufferSize != 2048 {
		t.Errorf("bufferSize = %d, want 2048", cfg.BufferSize)
	}
	if cfg.AJPMinProcessors != 5 || cfg.AJPMaxProcessors != 20 || cfg.AJPAcceptCount != 10 {
		t.Error("AJP defaults wrong")
	}
}

func TestDecodeConfigRaisesMaxToMin(t *testing.T) {
	sp := Space()
	c := sp.DefaultConfig()
	c[sp.IndexOf(ParamMinProcessors)] = 100
	c[sp.IndexOf(ParamMaxProcessors)] = 10
	cfg := DecodeConfig(c)
	if cfg.MaxProcessors != 100 {
		t.Fatalf("max = %d, want raised to 100", cfg.MaxProcessors)
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

func TestStaticRequestCompletes(t *testing.T) {
	eng, s := newServer(defaults())
	var ok bool
	completed := false
	s.Serve(8<<10, 0, nil, func(o bool) { ok = o; completed = true })
	eng.Run()
	if !completed || !ok {
		t.Fatal("static request did not complete successfully")
	}
	if s.Stats().Completed != 1 || s.Stats().Accepted != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestDynamicRequestCallsBackend(t *testing.T) {
	eng, s := newServer(defaults())
	backendCalled := false
	var ok bool
	s.Serve(8<<10, 0, func(release func(bool)) {
		backendCalled = true
		eng.Schedule(0.05, func() { release(true) }) // 50 ms in the DB
	}, func(o bool) { ok = o })
	eng.Run()
	if !backendCalled || !ok {
		t.Fatal("dynamic request flow broken")
	}
}

func TestBackendFailurePropagates(t *testing.T) {
	eng, s := newServer(defaults())
	var ok = true
	s.Serve(8<<10, 0, func(release func(bool)) { release(false) }, func(o bool) { ok = o })
	eng.Run()
	if ok {
		t.Fatal("backend failure not propagated")
	}
	// Threads must have been released: a follow-up request succeeds.
	var ok2 bool
	s.Serve(8<<10, 0, nil, func(o bool) { ok2 = o })
	eng.Run()
	if !ok2 {
		t.Fatal("threads leaked after backend failure")
	}
}

func TestAccessorsAndThreadAccounting(t *testing.T) {
	eng, s := newServer(defaults())
	// While the backend holds the request, one HTTP and one AJP
	// processor thread must show as busy; both return to idle when the
	// pooled call record is released.
	var httpBusy, ajpBusy int
	s.Serve(8<<10, 0, func(release func(bool)) {
		httpBusy, ajpBusy = s.ThreadsInUse()
		eng.Schedule(0.05, func() { release(true) })
	}, func(bool) {})
	eng.Run()
	if httpBusy != 1 || ajpBusy != 1 {
		t.Errorf("ThreadsInUse at backend = %d/%d, want 1/1", httpBusy, ajpBusy)
	}
	if h, a := s.ThreadsInUse(); h != 0 || a != 0 {
		t.Errorf("ThreadsInUse after drain = %d/%d, want 0/0", h, a)
	}
}

func TestBufferEfficiencyFloorsNonPositiveSize(t *testing.T) {
	cfg := defaults()
	cfg.BufferSize = 0
	_, s := newServer(cfg)
	// A zero/negative buffer size is treated as the 0.5 KB floor, so the
	// multiplier stays finite and strictly above the large-buffer limit.
	if e := s.bufferEfficiency(); !(e > 1 && e < 2) {
		t.Errorf("bufferEfficiency(0) = %v, want within (1, 2)", e)
	}
}

func TestAcceptQueueOverflowRejects(t *testing.T) {
	cfg := defaults()
	cfg.MaxProcessors = 1
	cfg.MinProcessors = 1
	cfg.AcceptCount = 2
	eng, s := newServer(cfg)
	rejected := 0
	// Hold the only thread with a never-returning backend for a while.
	s.Serve(1<<10, 0, func(release func(bool)) {
		eng.Schedule(100, func() { release(true) })
	}, func(bool) {})
	// Two fit in the accept queue; the rest must be rejected.
	for i := 0; i < 5; i++ {
		s.Serve(1<<10, 0, nil, func(ok bool) {
			if !ok {
				rejected++
			}
		})
	}
	eng.RunUntil(1)
	if rejected != 3 {
		t.Fatalf("rejected = %d, want 3", rejected)
	}
	if s.Stats().RejectedHTTP != 3 {
		t.Fatalf("RejectedHTTP = %d, want 3", s.Stats().RejectedHTTP)
	}
}

func TestAJPQueueOverflowRejects(t *testing.T) {
	cfg := defaults()
	cfg.AJPMaxProcessors = 1
	cfg.AJPMinProcessors = 1
	cfg.AJPAcceptCount = 1
	eng, s := newServer(cfg)
	outcomes := map[bool]int{}
	for i := 0; i < 4; i++ {
		s.Serve(1<<10, 0, func(release func(bool)) {
			eng.Schedule(50, func() { release(true) })
		}, func(ok bool) { outcomes[ok]++ })
	}
	eng.RunUntil(10)
	if s.Stats().RejectedAJP == 0 {
		t.Fatal("AJP queue overflow did not reject")
	}
	if outcomes[false] == 0 {
		t.Fatal("no request observed the rejection")
	}
}

func TestMoreThreadsHelpDBHeavyLoad(t *testing.T) {
	// With a 100 ms database delay per request, throughput is thread-bound:
	// doubling threads should roughly double completions in a fixed window.
	run := func(threads int64) uint64 {
		cfg := defaults()
		cfg.MaxProcessors = threads
		cfg.AJPMaxProcessors = threads
		cfg.AcceptCount = 1024
		cfg.AJPAcceptCount = 1024
		eng, s := newServer(cfg)
		for i := 0; i < 600; i++ {
			eng.Schedule(float64(i)*0.01, func() {
				s.Serve(4<<10, 0, func(release func(bool)) {
					eng.Schedule(0.1, func() { release(true) })
				}, func(bool) {})
			})
		}
		eng.RunUntil(6)
		return s.Stats().Completed
	}
	few, many := run(5), run(50)
	if float64(many) < 1.5*float64(few) {
		t.Fatalf("threads did not relieve DB-bound load: 5→%d, 50→%d", few, many)
	}
}

func TestLargerBufferReducesCPUDemand(t *testing.T) {
	small := defaults()
	small.BufferSize = 512
	big := defaults()
	big.BufferSize = 16384
	_, s1 := newServer(small)
	_, s2 := newServer(big)
	d1 := s1.generationDemand(32 << 10)
	d2 := s2.generationDemand(32 << 10)
	if d2 >= d1 {
		t.Fatalf("larger buffer not cheaper: %v >= %v", d2, d1)
	}
}

func TestMemoryFootprintGrowsWithThreads(t *testing.T) {
	small := defaults()
	big := defaults()
	big.MaxProcessors = 512
	big.AJPMaxProcessors = 512
	if big.MemoryFootprint() <= small.MemoryFootprint() {
		t.Fatal("footprint not monotone in threads")
	}
	// 512+512 threads should still be under ~2 GB (sane scale).
	if big.MemoryFootprint() > 2<<30 {
		t.Fatalf("footprint unreasonably large: %d", big.MemoryFootprint())
	}
}

func TestQueueDepths(t *testing.T) {
	cfg := defaults()
	cfg.MaxProcessors = 1
	cfg.MinProcessors = 1
	cfg.AcceptCount = 10
	eng, s := newServer(cfg)
	s.Serve(1<<10, 0, func(release func(bool)) {
		eng.Schedule(100, func() { release(true) })
	}, func(bool) {})
	s.Serve(1<<10, 0, nil, func(bool) {})
	s.Serve(1<<10, 0, nil, func(bool) {})
	eng.RunUntil(1)
	httpQ, _ := s.QueueDepths()
	if httpQ != 2 {
		t.Fatalf("httpQ = %d, want 2", httpQ)
	}
}

func BenchmarkServeStatic(b *testing.B) {
	eng, s := newServer(defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Serve(8<<10, 0, nil, func(bool) {})
		eng.Run()
	}
}
