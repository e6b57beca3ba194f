package simnet

import (
	"math/rand"
	"testing"
)

// queued returns the number of pending events in both heaps.
func queued(e *Engine) int { return len(e.near) + len(e.far) }

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
