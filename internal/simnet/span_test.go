package simnet

import "testing"

// sumSegs adds up the durations of a segment slice.
func sumSegs(segs []SpanSeg) int64 {
	var total int64
	for _, s := range segs {
		total += s.Dur
	}
	return total
}

func TestSpanBufMarksTileTimeline(t *testing.T) {
	var b SpanBuf
	b.Begin(100)
	b.Mark(1, SpanQueue, 100) // zero-length: skipped
	b.Mark(1, SpanQueue, 150)
	b.Mark(1, SpanService, 400)
	b.Mark(2, SpanService, 400) // zero-length: skipped
	b.Mark(2, SpanService, 1000)

	want := []SpanSeg{
		{Site: 1, Kind: SpanQueue, Dur: 50},
		{Site: 1, Kind: SpanService, Dur: 250},
		{Site: 2, Kind: SpanService, Dur: 600},
	}
	if len(b.Segs) != len(want) {
		t.Fatalf("got %d segments, want %d: %+v", len(b.Segs), len(want), b.Segs)
	}
	for i, seg := range want {
		if b.Segs[i] != seg {
			t.Errorf("seg %d = %+v, want %+v", i, b.Segs[i], seg)
		}
	}
	if got := sumSegs(b.Segs); got != b.last-b.Start() {
		t.Errorf("segment sum %d != span extent %d", got, b.last-b.Start())
	}
}

func TestSpanBufCloseAtResidual(t *testing.T) {
	var b SpanBuf
	b.Begin(0)
	b.Mark(3, SpanService, 40)
	b.CloseAt(100)
	if b.Active() {
		t.Fatal("buffer still active after CloseAt")
	}
	if len(b.Segs) != 2 {
		t.Fatalf("got %d segments, want 2: %+v", len(b.Segs), b.Segs)
	}
	res := b.Segs[1]
	if res.Site != 0 || res.Dur != 60 {
		t.Errorf("residual = %+v, want site 0 dur 60", res)
	}
	// Sealing exactly at Last leaves no residual.
	var c SpanBuf
	c.Begin(0)
	c.Mark(3, SpanService, 40)
	c.CloseAt(40)
	if len(c.Segs) != 1 {
		t.Errorf("residual appended for flush close: %+v", c.Segs)
	}
	// Marks after CloseAt are ignored.
	c.Mark(3, SpanService, 80)
	if len(c.Segs) != 1 {
		t.Errorf("mark accepted on sealed buffer: %+v", c.Segs)
	}
}

func TestSpanBufBeginReusesStorage(t *testing.T) {
	var b SpanBuf
	b.Begin(0)
	for i := int64(1); i <= 8; i++ {
		b.Mark(1, SpanService, i*10)
	}
	var kid SpanBuf
	kid.Begin(0)
	kid.Mark(2, SpanService, 5)
	b.AddChild(&kid, 5, true, 0)
	b.CloseAt(80)

	segCap, kidCap, ksCap := cap(b.Segs), cap(b.Kids), cap(b.KidSegs)
	allocs := testing.AllocsPerRun(100, func() {
		b.Begin(0)
		for i := int64(1); i <= 8; i++ {
			b.Mark(1, SpanService, i*10)
		}
		kid.Begin(0)
		kid.Mark(2, SpanService, 5)
		b.AddChild(&kid, 5, true, 0)
		b.CloseAt(80)
	})
	if allocs != 0 {
		t.Errorf("steady-state span recording allocates %.1f/op, want 0", allocs)
	}
	if cap(b.Segs) != segCap || cap(b.Kids) != kidCap || cap(b.KidSegs) != ksCap {
		t.Errorf("storage reallocated across Begin: caps %d/%d/%d -> %d/%d/%d",
			segCap, kidCap, ksCap, cap(b.Segs), cap(b.Kids), cap(b.KidSegs))
	}
}

func TestSpanBufAddChildAndCritical(t *testing.T) {
	var parent, kid1, kid2 SpanBuf
	parent.Begin(0)
	parent.Mark(1, SpanService, 10)

	kid1.Begin(10)
	kid1.Mark(2, SpanQueue, 15)
	kid1.Mark(2, SpanService, 30)
	i1 := parent.AddChild(&kid1, 30, true, 7)

	kid2.Begin(10)
	kid2.Mark(3, SpanService, 50)
	i2 := parent.AddChild(&kid2, 50, false, 0)

	parent.SetCritical(i1, true)
	parent.SetCritical(i1, false)
	parent.SetCritical(i2, true)

	if len(parent.Kids) != 2 {
		t.Fatalf("got %d kids, want 2", len(parent.Kids))
	}
	k1, k2 := parent.Kids[0], parent.Kids[1]
	if k1.Critical || !k2.Critical {
		t.Errorf("critical flags = %v/%v, want false/true", k1.Critical, k2.Critical)
	}
	if !k1.OK || k2.OK {
		t.Errorf("ok flags = %v/%v, want true/false", k1.OK, k2.OK)
	}
	if k1.Label != 7 {
		t.Errorf("kid1 label = %d, want 7", k1.Label)
	}
	if k1.Start != 10 || k1.End != 30 || k2.Start != 10 || k2.End != 50 {
		t.Errorf("kid extents = [%d,%d] [%d,%d], want [10,30] [10,50]",
			k1.Start, k1.End, k2.Start, k2.End)
	}
	s1 := parent.KidSpanSegs(i1)
	if len(s1) != 2 || sumSegs(s1) != 20 {
		t.Errorf("kid1 segs = %+v, want 2 segs summing 20", s1)
	}
	s2 := parent.KidSpanSegs(i2)
	if len(s2) != 1 || sumSegs(s2) != 40 {
		t.Errorf("kid2 segs = %+v, want 1 seg summing 40", s2)
	}
	if kid1.Active() || kid2.Active() {
		t.Error("children still active after AddChild")
	}
}

func TestEngineThreadsSpanThroughEvents(t *testing.T) {
	var eng Engine
	var b SpanBuf
	b.Begin(0)

	var sawInner, sawOuter *SpanBuf
	eng.Schedule(0, func() {
		eng.SetSpan(&b)
		// Scheduled while b is installed: the nested event captures it.
		eng.Schedule(1, func() {
			sawInner = eng.CurrentSpan()
			// An event scheduled from inside inherits too.
			eng.Schedule(1, func() { sawOuter = eng.CurrentSpan() })
		})
		eng.SetSpan(nil)
		// Scheduled after detach: carries no span.
		eng.Schedule(2, func() {
			if eng.CurrentSpan() != nil {
				t.Error("detached event carries a span")
			}
		})
	})
	eng.Run()
	if sawInner != &b || sawOuter != &b {
		t.Errorf("span not threaded through dispatch: inner=%p outer=%p want %p",
			sawInner, sawOuter, &b)
	}
	if eng.CurrentSpan() != nil {
		t.Error("engine span context not cleared after dispatch")
	}
}

func TestStationRecordsQueueAndService(t *testing.T) {
	var eng Engine
	st := NewStation(&eng, "st", 1, 1.0) // 1 server: second job queues
	st.SetSpanSite(9)

	var a, b SpanBuf
	submit := func(buf *SpanBuf, demand float64) {
		eng.Schedule(0, func() {
			buf.Begin(eng.NowTicks())
			prev := eng.SetSpan(buf)
			st.Submit(demand, func() {
				buf.CloseAt(eng.NowTicks())
			})
			eng.SetSpan(prev)
		})
	}
	submit(&a, 0.5)  // served immediately: [0, 0.5]
	submit(&b, 0.25) // queued behind a: waits [0, 0.5], served [0.5, 0.75]
	eng.Run()

	if len(a.Segs) != 1 || a.Segs[0] != (SpanSeg{Site: 9, Kind: SpanService, Dur: 500000}) {
		t.Errorf("immediate job segs = %+v, want one 500000-tick service seg", a.Segs)
	}
	wantB := []SpanSeg{
		{Site: 9, Kind: SpanQueue, Dur: 500000},
		{Site: 9, Kind: SpanService, Dur: 250000},
	}
	if len(b.Segs) != 2 || b.Segs[0] != wantB[0] || b.Segs[1] != wantB[1] {
		t.Errorf("queued job segs = %+v, want %+v", b.Segs, wantB)
	}
	if got := sumSegs(b.Segs); got != b.last-b.Start() {
		t.Errorf("decomposition sum %d != extent %d", got, b.last-b.Start())
	}
}

func TestTokenPoolRecordsWait(t *testing.T) {
	var eng Engine
	pool := NewTokenPool(&eng, "pool", 1, 4)
	pool.SetSpanSite(5)
	st := NewStation(&eng, "st", 1, 1.0)
	st.SetSpanSite(6)

	// Holder takes the token for 1s of station service, then releases.
	eng.Schedule(0, func() {
		pool.Acquire(func() {
			st.Submit(1.0, pool.Release)
		}, nil)
	})
	// Waiter arrives at t=0 too; granted at t=1 when the holder releases.
	var w SpanBuf
	eng.Schedule(0, func() {
		w.Begin(eng.NowTicks())
		prev := eng.SetSpan(&w)
		pool.Acquire(func() {
			// Span context restored to the waiter's at grant time.
			if eng.CurrentSpan() != &w {
				t.Error("pool grant did not restore waiter span context")
			}
			st.Submit(0.5, func() {
				pool.Release()
				w.CloseAt(eng.NowTicks())
			})
		}, nil)
		eng.SetSpan(prev)
	})
	eng.Run()

	want := []SpanSeg{
		{Site: 5, Kind: SpanQueue, Dur: 1000000},
		{Site: 6, Kind: SpanService, Dur: 500000},
	}
	if len(w.Segs) != 2 || w.Segs[0] != want[0] || w.Segs[1] != want[1] {
		t.Errorf("waiter segs = %+v, want %+v", w.Segs, want)
	}
}

func TestTicksRounding(t *testing.T) {
	cases := []struct {
		t    float64
		want int64
	}{
		{0, 0},
		{1.0, 1000000},
		{0.0000004, 0},
		{0.0000006, 1},
		{12.3456789, 12345679},
	}
	for _, c := range cases {
		if got := Ticks(c.t); got != c.want {
			t.Errorf("Ticks(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}
