package simnet

import (
	"sort"
	"testing"
	"testing/quick"

	"webharmony/internal/rng"
)

// Step executes the next pending event and returns true, or returns false
// if no events remain: the single step the engine tests drive the loop
// with. The simulator itself only runs RunUntil and Run.
func (e *Engine) Step() bool {
	h := e.head()
	if h == nil {
		return false
	}
	e.dispatch(h)
	return true
}

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(10, func() {
		e.Schedule(-5, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	e.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("RunUntil executed %d events, want 5", count)
	}
	if e.Now() != 5.5 {
		t.Fatalf("Now = %v, want 5.5", e.Now())
	}
	e.RunUntil(100)
	if count != 10 {
		t.Fatalf("after second RunUntil count = %d, want 10", count)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(5, func() { fired = true })
	e.RunUntil(5)
	if !fired {
		t.Fatal("event exactly at boundary should fire")
	}
}

// TestAtAbsoluteTime checks that a delay scheduled from inside an event
// is measured from that event's time, so the nested event fires at the
// absolute time now+delay.
func TestAtAbsoluteTime(t *testing.T) {
	var e Engine
	var at float64
	e.Schedule(3, func() {
		e.Schedule(10-e.Now(), func() { at = e.Now() })
	})
	e.Run()
	if at != 10 {
		t.Fatalf("nested event fired at %v, want 10", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("Now = %v, want 99", e.Now())
	}
}

func TestEventOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var e Engine
		n := 1 + src.Intn(200)
		delays := make([]float64, n)
		for i := range delays {
			delays[i] = src.Uniform(0, 100)
		}
		var fireTimes []float64
		for _, d := range delays {
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != n {
			return false
		}
		return sort.Float64sAreSorted(fireTimes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStationSingleServer(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 1, 1)
	var done []float64
	for i := 0; i < 3; i++ {
		st.Submit(2, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []float64{2, 4, 6}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d at %v, want %v", i, done[i], w)
		}
	}
	if len(done) != 3 {
		t.Fatalf("%d completions, want 3", len(done))
	}
}

func TestStationMultiServer(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 2, 1)
	var done []float64
	for i := 0; i < 4; i++ {
		st.Submit(2, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// Two run in parallel finishing at 2, next two at 4.
	want := []float64{2, 2, 4, 4}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d at %v, want %v", i, done[i], w)
		}
	}
}

func TestStationSpeed(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 1, 2) // double speed
	var at float64
	st.Submit(4, func() { at = e.Now() })
	e.Run()
	if at != 2 {
		t.Fatalf("sped-up job completed at %v, want 2", at)
	}
}

func TestStationUtilization(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 2, 1)
	base := st.BusyTime()
	from := e.Now()
	st.Submit(10, nil) // one of two servers busy for 10s
	e.RunUntil(10)
	u := st.Utilization(base, from)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestStationUtilizationFullLoad(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 1, 1)
	base := st.BusyTime()
	from := e.Now()
	for i := 0; i < 10; i++ {
		st.Submit(5, nil)
	}
	e.RunUntil(20)
	if u := st.Utilization(base, from); u != 1 {
		t.Fatalf("utilization = %v, want 1 (saturated)", u)
	}
}

func TestStationZeroDemand(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 1, 1)
	fired := false
	st.Submit(0, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("zero-demand job never completed")
	}
	if e.Now() != 0 {
		t.Fatalf("zero-demand job advanced clock to %v", e.Now())
	}
}

func TestStationFIFOWithinQueue(t *testing.T) {
	var e Engine
	st := NewStation(&e, "d", 1, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		st.Submit(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("queue not FIFO: %v", order)
		}
	}
}

func TestStationConservation(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var e Engine
		st := NewStation(&e, "cpu", 1+src.Intn(4), 1)
		n := src.Intn(200)
		completed := 0
		for i := 0; i < n; i++ {
			st.Submit(src.Exp(1), func() { completed = completed + 1 })
		}
		e.Run()
		return completed == n && st.Busy() == 0 && st.QueueLen() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStationPanics(t *testing.T) {
	var e Engine
	for _, fn := range []func(){
		func() { NewStation(&e, "x", 0, 1) },
		func() { NewStation(&e, "x", 1, 0) },
		func() { NewStation(&e, "x", 1, 1).SetSpeed(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTokenPoolImmediateGrant(t *testing.T) {
	var e Engine
	p := NewTokenPool(&e, "threads", 2, 0)
	granted := 0
	p.Acquire(func() { granted++ }, nil)
	p.Acquire(func() { granted++ }, nil)
	if granted != 2 || p.InUse() != 2 {
		t.Fatalf("granted=%d inUse=%d", granted, p.InUse())
	}
}

func TestTokenPoolRejectWhenFull(t *testing.T) {
	var e Engine
	p := NewTokenPool(&e, "threads", 1, 1)
	p.Acquire(func() {}, nil) // takes the token
	p.Acquire(func() {}, nil) // waits (queue slot 1)
	rejected := 0
	p.Acquire(func() { t.Fatal("should not grant") }, func() { rejected++ })
	if rejected != 1 {
		t.Fatal("third acquire should be rejected once")
	}
}

func TestTokenPoolFIFOWakeup(t *testing.T) {
	var e Engine
	p := NewTokenPool(&e, "threads", 1, -1)
	var order []int
	p.Acquire(func() {}, nil)
	for i := 0; i < 3; i++ {
		i := i
		p.Acquire(func() { order = append(order, i) }, nil)
	}
	for i := 0; i < 3; i++ {
		p.Release()
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("waiters woken out of order: %v", order)
	}
}

func TestTokenPoolReleaseWithoutAcquirePanics(t *testing.T) {
	var e Engine
	p := NewTokenPool(&e, "threads", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	p.Release()
}

func TestTokenPoolInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var e Engine
		cap := 1 + src.Intn(8)
		p := NewTokenPool(&e, "x", cap, src.Intn(10)-1)
		held := 0
		for i := 0; i < 300; i++ {
			if src.Bernoulli(0.6) {
				p.Acquire(func() { held++ }, nil)
			} else if held > 0 {
				p.Release()
				held--
			}
			if p.InUse() > cap || p.InUse() < 0 {
				return false
			}
			if p.InUse() < cap && p.Waiting() > 0 {
				return false // free tokens with waiters queued
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%17), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineHold times one dispatch under the event mix of a
// paper-scale window: 512 browser think timers drawn from Exp(2 s), each
// re-armed when it fires, and 8 service completions or LAN hops in
// flight, each re-armed within 10 ms. About 86% of the dispatches are the
// near events, as in StandardLab windows. One op is one Step.
func BenchmarkEngineHold(b *testing.B) {
	b.ReportAllocs()
	var e Engine
	src := rng.New(1)
	var think, hop func()
	think = func() { e.Schedule(src.Exp(2), think) }
	hop = func() { e.Schedule(src.Uniform(0, 0.01), hop) }
	for i := 0; i < 512; i++ {
		e.Schedule(src.Exp(2), think)
	}
	for i := 0; i < 8; i++ {
		e.Schedule(src.Uniform(0, 0.01), hop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStationThroughput(b *testing.B) {
	var e Engine
	st := NewStation(&e, "cpu", 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(0.001, nil)
		e.Step()
	}
	e.Run()
}

// BenchmarkStationThroughputProfiled is BenchmarkStationThroughput with a
// profile attached and each job submitted inside an Enter'ed frame, the
// shape of every instrumented station submission.
func BenchmarkStationThroughputProfiled(b *testing.B) {
	var e Engine
	e.SetProfile(NewProfile())
	st := NewStation(&e, "cpu", 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := e.Enter("req")
		st.Submit(0.001, nil)
		f.Exit()
		e.Step()
	}
	e.Run()
}

// BenchmarkStationDeepQueue is BenchmarkStationThroughput on a saturated
// station: 64 jobs always wait, so every completion dequeues from a deep
// FIFO. Dequeuing is O(1) and allocation-free, so its cost does not grow
// with the depth.
func BenchmarkStationDeepQueue(b *testing.B) {
	var e Engine
	st := NewStation(&e, "cpu", 1, 1)
	for i := 0; i < 65; i++ {
		st.Submit(0.001, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(0.001, nil)
		e.Step()
	}
	e.Run()
}
