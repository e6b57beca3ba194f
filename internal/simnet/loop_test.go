package simnet

import (
	"math/rand"
	"testing"
)

// --- event free-list, lazy cancel, and Pending semantics ---

// TestPendingExcludesCanceled locks the Pending contract: canceled events
// still physically in the heap do not count as pending.
func TestPendingExcludesCanceled(t *testing.T) {
	e := &Engine{}
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = e.Schedule(float64(i+1), func() {})
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	// Canceling twice must not double-count.
	timers[0].Cancel()
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending after re-cancel = %d, want 6", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}

// TestCancelReleasesClosure verifies the leak fix: Cancel drops the
// callback immediately (ev.fn = nil) instead of keeping the closure — and
// everything it captures — alive until the event's pop time.
func TestCancelReleasesClosure(t *testing.T) {
	e := &Engine{}
	fired := false
	tm := e.Schedule(5, func() { fired = true })
	tm.Cancel()
	if tm.ev.fn != nil {
		t.Fatal("Cancel left the closure attached to the heap entry")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

// TestCancelCompaction verifies that heavy cancellation triggers heap
// compaction: dead events are physically removed and recycled rather than
// retained until their (possibly far-future) pop time.
func TestCancelCompaction(t *testing.T) {
	e := &Engine{}
	const n = 4 * compactMin
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = e.Schedule(float64(i+1), func() {})
	}
	// Cancel most of the far-future events. Compaction keeps the invariant
	// "dead entries stay under compactMin or under half the heap", so the
	// heap must shrink well below the scheduled total instead of retaining
	// every canceled record until its pop time.
	for i := n / 4; i < n; i++ {
		timers[i].Cancel()
		if e.canceled >= compactMin && e.canceled*2 > len(e.events) {
			t.Fatalf("after cancel %d: %d dead in a %d-entry heap, compaction never ran",
				i, e.canceled, len(e.events))
		}
	}
	if len(e.events) >= n/2 {
		t.Fatalf("heap holds %d of %d entries after mass cancel; compaction reclaimed nothing", len(e.events), n)
	}
	if e.Pending() != n/4 {
		t.Fatalf("Pending = %d, want %d", e.Pending(), n/4)
	}
	// The surviving events still fire in order.
	var prev float64 = -1
	count := 0
	for e.Step() {
		if e.Now() < prev {
			t.Fatalf("time went backwards: %g after %g", e.Now(), prev)
		}
		prev = e.Now()
		count++
	}
	if count != n/4 {
		t.Fatalf("fired %d events, want %d", count, n/4)
	}
}

// TestStaleTimerCannotCancelRecycledEvent verifies the generation guard:
// after an event fires its record is recycled, and a retained handle to
// the fired event must not cancel whatever event inherited the record.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	e := &Engine{}
	stale := e.Schedule(1, func() {})
	e.Run() // fires and recycles the record
	fired := false
	fresh := e.Schedule(1, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Skip("free list did not recycle the record; guard untestable here")
	}
	stale.Cancel() // must be a no-op: generation mismatch
	e.Run()
	if !fired {
		t.Fatal("stale Timer canceled a recycled event")
	}
}

// TestSelfCancelDuringDispatch: a callback canceling its own (already
// popped and recycled) timer must be a no-op.
func TestSelfCancelDuringDispatch(t *testing.T) {
	e := &Engine{}
	var tm Timer
	other := false
	tm = e.Schedule(1, func() {
		tm.Cancel() // the event is mid-dispatch; this must not corrupt anything
		e.Schedule(1, func() { other = true })
	})
	e.Run()
	if !other {
		t.Fatal("follow-up event did not fire after self-cancel")
	}
}

// --- property test: determinism under interleaved Schedule/Cancel/Step ---

// refEvent is the reference model's event: a plain sorted list, no
// free-list, no lazy cancel.
type refEvent struct {
	at       float64
	seq      uint64
	id       int
	canceled bool
}

// TestInterleavedScheduleCancelStepProperty drives the engine and a naive
// reference model through the same randomized Schedule/Cancel/Step
// interleavings and requires identical firing sequences. This pins the
// (at, seq) ordering contract across the free-list recycling, lazy
// cancellation, and compaction machinery.
func TestInterleavedScheduleCancelStepProperty(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := &Engine{}
		var (
			ref      []refEvent
			timers   []Timer
			refIDs   []int
			gotFired []int
			nextID   int
		)
		refFire := func() (int, bool) {
			best := -1
			for i, ev := range ref {
				if ev.canceled {
					continue
				}
				if best < 0 || ev.at < ref[best].at ||
					(ev.at == ref[best].at && ev.seq < ref[best].seq) {
					best = i
				}
			}
			if best < 0 {
				return 0, false
			}
			id := ref[best].id
			ref = append(ref[:best], ref[best+1:]...)
			return id, true
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Float64(); {
			case r < 0.55: // schedule
				id := nextID
				nextID++
				delay := rng.Float64() * 10
				// A quarter of events land at an already-used time to
				// exercise the seq tiebreak.
				if len(ref) > 0 && rng.Intn(4) == 0 {
					delay = ref[rng.Intn(len(ref))].at - e.Now()
					if delay < 0 {
						delay = 0
					}
				}
				tm := e.Schedule(delay, func() { gotFired = append(gotFired, id) })
				at := e.Now() + delay
				ref = append(ref, refEvent{at: at, seq: tm.ev.seq, id: id})
				timers = append(timers, tm)
				refIDs = append(refIDs, id)
			case r < 0.75 && len(timers) > 0: // cancel a random timer
				i := rng.Intn(len(timers))
				timers[i].Cancel()
				for j := range ref {
					if ref[j].id == refIDs[i] {
						ref[j].canceled = true
					}
				}
			default: // step
				wantID, wantOK := refFire()
				before := len(gotFired)
				gotOK := e.Step()
				// The reference skips canceled events; Step reports false
				// only when nothing live remains.
				if gotOK != wantOK {
					t.Fatalf("trial %d op %d: Step = %v, reference = %v", trial, op, gotOK, wantOK)
				}
				if wantOK {
					if len(gotFired) != before+1 || gotFired[len(gotFired)-1] != wantID {
						t.Fatalf("trial %d op %d: fired %v, reference wants id %d", trial, op, gotFired[before:], wantID)
					}
				}
			}
		}
		// Drain both and require the same tail.
		for {
			wantID, wantOK := refFire()
			before := len(gotFired)
			gotOK := e.Step()
			if gotOK != wantOK {
				t.Fatalf("trial %d drain: Step = %v, reference = %v", trial, gotOK, wantOK)
			}
			if !wantOK {
				break
			}
			if gotFired[before] != wantID {
				t.Fatalf("trial %d drain: fired %d, reference wants %d", trial, gotFired[before], wantID)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: Pending = %d after drain", trial, e.Pending())
		}
	}
}

// --- TokenPool reentrancy regressions ---

// TestTokenPoolReentrantReleaseDuringGrant: a grant callback that
// immediately releases its token re-enters grantWaiters mid-loop. The old
// loop would run a nested drain while the outer copy still held stale
// slice state; the guard makes the outer loop do all the work. Every
// waiter must be granted exactly once, in FIFO order.
func TestTokenPoolReentrantReleaseDuringGrant(t *testing.T) {
	e := &Engine{}
	p := NewTokenPool(e, "pool", 1, -1)
	var order []int
	p.Acquire(func() {}, nil) // take the only token
	for i := 1; i <= 4; i++ {
		i := i
		p.Acquire(func() {
			order = append(order, i)
			p.Release() // re-enters grantWaiters while it is dispatching
		}, nil)
	}
	p.Release() // kicks off the chain
	if want := []int{1, 2, 3, 4}; len(order) != len(want) {
		t.Fatalf("granted %v, want %v", order, want)
	} else {
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("granted %v, want %v", order, want)
			}
		}
	}
	if p.InUse() != 0 || p.Waiting() != 0 {
		t.Fatalf("InUse=%d Waiting=%d after chain, want 0 and 0", p.InUse(), p.Waiting())
	}
}

// TestTokenPoolReentrantAcquirePreservesFIFO: an Acquire issued from
// inside a grant callback, right after that callback re-entered Release,
// must queue behind the already-waiting requests, not barge past them
// through the token the Release just freed.
func TestTokenPoolReentrantAcquirePreservesFIFO(t *testing.T) {
	e := &Engine{}
	p := NewTokenPool(e, "pool", 1, -1)
	var order []string
	p.Acquire(func() {}, nil) // hold the only token; B, C wait
	p.Acquire(func() {
		order = append(order, "B")
		// B hands its token straight back, and D arrives while the drain
		// still owes C that token.
		p.Release()
		p.Acquire(func() {
			order = append(order, "D")
			p.Release()
		}, nil)
	}, nil)
	p.Acquire(func() {
		order = append(order, "C")
		p.Release()
	}, nil)
	p.Release() // drain: grants B, then C, then D — strictly FIFO
	want := []string{"B", "C", "D"}
	if len(order) != len(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v (reentrant Acquire barged)", order, want)
		}
	}
}

// TestTokenPoolInvariantUnderReentrancy re-checks the free-tokens-with-
// waiters invariant while grant callbacks re-enter the pool arbitrarily.
func TestTokenPoolInvariantUnderReentrancy(t *testing.T) {
	e := &Engine{}
	p := NewTokenPool(e, "pool", 2, -1)
	rng := rand.New(rand.NewSource(7))
	var active int
	var churn func()
	churn = func() {
		active++
		if rng.Intn(3) == 0 && active < 40 {
			p.Acquire(churn, nil)
		}
		e.Schedule(rng.Float64(), func() {
			p.Release()
			if p.InUse() < p.Capacity() && p.Waiting() > 0 {
				t.Errorf("invariant broken: %d/%d in use with %d waiting",
					p.InUse(), p.Capacity(), p.Waiting())
			}
		})
	}
	for i := 0; i < 25; i++ {
		p.Acquire(churn, nil)
	}
	e.Run()
	if p.InUse() != 0 || p.Waiting() != 0 {
		t.Fatalf("InUse=%d Waiting=%d after drain", p.InUse(), p.Waiting())
	}
}

// --- microbenchmarks (before/after numbers in the PR) ---

// BenchmarkEngineScheduleCancel measures the cancel-heavy pattern the
// Figure 5 think-time churn produces: schedule far-future work, cancel
// most of it, keep the loop moving.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := &Engine{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep := e.Schedule(1, func() {})
		for j := 0; j < 4; j++ {
			tm := e.Schedule(1e6, func() {})
			tm.Cancel()
		}
		_ = keep
		e.Step()
	}
}

// BenchmarkEngineDispatchProfiled measures per-event profiler overhead
// relative to BenchmarkEngineScheduleRun's bare dispatch loop.
func BenchmarkEngineDispatchProfiled(b *testing.B) {
	b.ReportAllocs()
	e := &Engine{}
	e.SetProfile(NewProfile())
	f := e.EnterRoot("bench")
	defer f.Exit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%10), func() {})
		}
		e.Run()
	}
}
