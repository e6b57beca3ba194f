package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
)

// --- the two-level event queue against a single reference heap ---

// refHeapEvent is one entry of refLoop's heap.
type refHeapEvent struct {
	at  float64
	seq uint64
	id  int
}

// refHeap is a container/heap min-heap ordered by (at, seq).
type refHeap []*refHeapEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refHeapEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old) - 1; x := old[n]; *h = old[:n]; return x }

// refLoop is the event loop with every pending event in one heap and no
// free list.
type refLoop struct {
	now   float64
	seq   uint64
	h     refHeap
	fired []int
}

func (r *refLoop) schedule(delay float64, id int) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&r.h, &refHeapEvent{at: r.now + delay, seq: r.seq, id: id})
	r.seq++
}

func (r *refLoop) step() bool {
	if r.h.Len() == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refHeapEvent)
	r.now = ev.at
	r.fired = append(r.fired, ev.id)
	return true
}

func (r *refLoop) runUntil(t float64) {
	for len(r.h) > 0 && r.h[0].at <= t {
		r.step()
	}
	if t > r.now {
		r.now = t
	}
}

// queueDelay draws a delay on either side of farDelay. Most are whole
// multiples of 1/256 s, so every event time is exact and events scheduled
// at different instants, into different heaps, often fall due at the same
// at; the rest are arbitrary.
func queueDelay(rng *rand.Rand) float64 {
	const tick = 1.0 / 256
	switch r := rng.Float64(); {
	case r < 0.5: // service times and LAN hops, 0 to ~0.16 s: both heaps
		return float64(rng.Intn(41)) * tick
	case r < 0.8: // think timers, 1 to 5 s
		return float64(256+rng.Intn(1025)) * tick
	case r < 0.9: // right at the cut
		return farDelay
	default:
		return rng.Float64() * 0.2
	}
}

// TestTwoLevelQueueMatchesSingleHeap drives the engine and refLoop
// through the same random Schedule, Step and RunUntil sequences and
// requires the same dispatch order and clock after every operation. The
// delays straddle farDelay, and RunUntil stops both between events and
// exactly on one. The test also counts that these cases came up: ties in
// at between the two heads, far events that fired while the near heap was
// not empty, and RunUntil limits equal to a pending event's time.
func TestTwoLevelQueueMatchesSingleHeap(t *testing.T) {
	var ties, farFirst, exactLimits int
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		e := &Engine{}
		ref := &refLoop{}
		var (
			got     []int
			nextID  int
			checkAt = func(op int, what string) {
				t.Helper()
				if len(got) != len(ref.fired) {
					t.Fatalf("trial %d op %d %s: engine fired %d events, reference %d", trial, op, what, len(got), len(ref.fired))
				}
				for i := range got {
					if got[i] != ref.fired[i] {
						t.Fatalf("trial %d op %d %s: dispatch %d is event %d, reference fires %d", trial, op, what, i, got[i], ref.fired[i])
					}
				}
				if e.Now() != ref.now {
					t.Fatalf("trial %d op %d %s: Now = %v, reference %v", trial, op, what, e.Now(), ref.now)
				}
				if queued(e) != ref.h.Len() {
					t.Fatalf("trial %d op %d %s: %d pending, reference %d", trial, op, what, queued(e), ref.h.Len())
				}
			}
		)
		schedule := func(delay float64) {
			id := nextID
			nextID++
			e.Schedule(delay, func() { got = append(got, id) })
			ref.schedule(delay, id)
		}
		for op := 0; op < 600; op++ {
			if len(e.near) > 0 && len(e.far) > 0 && e.near[0].at == e.far[0].at {
				ties++
			}
			switch r := rng.Float64(); {
			case r < 0.55:
				schedule(queueDelay(rng))
				checkAt(op, "schedule")
			case r < 0.90:
				nearLen := len(e.near)
				fromFar := e.head() == &e.far
				wantOK := ref.step()
				if gotOK := e.Step(); gotOK != wantOK {
					t.Fatalf("trial %d op %d: Step = %v, reference %v", trial, op, gotOK, wantOK)
				}
				if fromFar && nearLen > 0 {
					farFirst++
				}
				checkAt(op, "step")
			default:
				limit := e.Now() + float64(rng.Intn(65))/256
				if pend := ref.h; len(pend) > 0 && rng.Intn(2) == 0 {
					limit = pend[rng.Intn(len(pend))].at
					exactLimits++
				}
				e.RunUntil(limit)
				ref.runUntil(limit)
				checkAt(op, "RunUntil")
			}
		}
		e.Run()
		for ref.step() {
		}
		checkAt(-1, "drain")
		if queued(e) != 0 {
			t.Fatalf("trial %d: %d events left queued after the drain", trial, queued(e))
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"ties in at between the near and far heads", ties},
		{"far events fired ahead of a non-empty near heap", farFirst},
		{"RunUntil limits on an event's time", exactLimits},
	} {
		if c.n == 0 {
			t.Errorf("no %s: the test did not exercise that case", c.name)
		}
	}
}
