package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fifoCompact reports the fifo's shape invariant: the consumed prefix is
// always shorter than half the slice (or empty), so a queue that never
// drains still keeps its buffer within about twice its pending items.
func fifoCompact[T any](q *fifo[T]) bool {
	return q.head == 0 || 2*q.head < len(q.buf)
}

// TestFIFOMatchesSlice drives a fifo and a plain slice with the same
// pushes and pops, through long stretches where the queue never empties,
// and checks order, length and the compaction invariant at every step.
func TestFIFOMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var q fifo[int]
	var ref []int
	next, compactions := 0, 0
	for op := 0; op < 20000; op++ {
		// Alternate growing and shrinking phases, with the shrinking
		// phases stopping short of empty most of the time.
		grow := (op/500)%2 == 0
		if push := r.Intn(10) < 4 || (grow && r.Intn(10) < 3); push || len(ref) == 0 {
			q.push(next)
			ref = append(ref, next)
			next++
		} else {
			head := q.head
			if got := q.pop(); got != ref[0] {
				t.Fatalf("op %d: pop = %d, want %d", op, got, ref[0])
			}
			ref = ref[1:]
			if head > 0 && q.head == 0 && len(ref) > 0 {
				compactions++
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", op, q.len(), len(ref))
		}
		if !fifoCompact(&q) {
			t.Fatalf("op %d: head %d of %d not compacted", op, q.head, len(q.buf))
		}
		// Every slot outside the pending items is zero, so the queue
		// keeps nothing it has handed out alive.
		outside := append(append([]int(nil), q.buf[:q.head]...), q.buf[len(q.buf):cap(q.buf)]...)
		for _, v := range outside {
			if v != 0 {
				t.Fatalf("op %d: a slot outside the pending items still holds %d", op, v)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no pop compacted a non-empty queue; the compaction path was not exercised")
	}
}

// refStation is the station's queue discipline before the head-index
// fifo: a slice shifted down by one on every dequeue. It is the
// reference model the Station is checked against.
type refStation struct {
	eng     *Engine
	servers int
	busy    int
	queue   []refJob
	queuePk int
}

type refJob struct {
	demand float64
	done   func()
}

func (s *refStation) Submit(demand float64, done func()) {
	if s.busy < s.servers {
		s.start(demand, done)
		return
	}
	s.queue = append(s.queue, refJob{demand, done})
	if len(s.queue) > s.queuePk {
		s.queuePk = len(s.queue)
	}
}

func (s *refStation) start(demand float64, done func()) {
	s.busy++
	s.eng.Schedule(demand, func() {
		s.busy--
		if len(s.queue) > 0 {
			next := s.queue[0]
			copy(s.queue, s.queue[1:])
			s.queue = s.queue[:len(s.queue)-1]
			s.start(next.demand, next.done)
		}
		done()
	})
}

func (s *refStation) QueueLen() int { return len(s.queue) }
func (s *refStation) peak() int     { return s.queuePk }

// stationOps is the surface the station scenario drives.
type stationOps interface {
	Submit(demand float64, done func())
	QueueLen() int
	peak() int
}

// realStation adapts a Station to stationOps.
type realStation struct{ *Station }

func (s realStation) peak() int { return s.queuedPeak }

// stationScenario runs a seeded random workload against st and returns
// its log: every completion with the queue length its callback saw, and
// the queue length and peak after every operation. Fill phases keep the
// queue from draining; drain phases let it empty. Completions resubmit
// work from inside their callbacks.
func stationScenario(seed int64, e *Engine, st stationOps, check func(op int)) []string {
	r := rand.New(rand.NewSource(seed))
	var log []string
	next := 0
	var submit func()
	submit = func() {
		id := next
		next++
		demand := r.Float64()
		if r.Intn(8) == 0 {
			demand = 0
		}
		st.Submit(demand, func() {
			log = append(log, fmt.Sprintf("done %d q=%d", id, st.QueueLen()))
			if next < 6000 && r.Intn(3) == 0 {
				submit()
			}
		})
	}
	for op := 0; op < 4000; op++ {
		fill := (op/400)%2 == 0
		if fill && r.Intn(100) < 45 {
			for n := r.Intn(3); n >= 0; n-- {
				submit()
			}
		} else {
			e.Step()
		}
		log = append(log, fmt.Sprintf("op %d q=%d peak=%d", op, st.QueueLen(), st.peak()))
		if check != nil {
			check(op)
		}
	}
	e.Run()
	return append(log, fmt.Sprintf("end q=%d peak=%d", st.QueueLen(), st.peak()))
}

// TestStationMatchesReference checks the Station's O(1) queue against
// the shifting-slice reference: the same completions in the same order,
// and the same QueueLen and queue peak at every step, through queues
// that never fully drain (so pops compact).
func TestStationMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		servers := 1 + int(seed%3)
		var refEng Engine
		want := stationScenario(seed, &refEng, &refStation{eng: &refEng, servers: servers}, nil)

		var e Engine
		deep, maxQueue := false, 0
		st := NewStation(&e, "cpu", servers, 1)
		got := stationScenario(seed, &e, realStation{st}, func(op int) {
			if !fifoCompact(&st.queue) {
				t.Fatalf("seed %d op %d: head %d of %d not compacted", seed, op, st.queue.head, len(st.queue.buf))
			}
			if st.queue.head > 0 && st.queue.len() > 0 {
				deep = true
			}
			maxQueue = max(maxQueue, st.QueueLen())
		})
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: log line %d = %q, reference %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: log lengths %d != %d", seed, len(got), len(want))
		}
		if !deep || maxQueue < 64 {
			t.Fatalf("seed %d: scenario too shallow (popped without draining %v, max queue %d)", seed, deep, maxQueue)
		}
	}
}

// refPool is the token pool's wait queue before the head-index fifo: a
// slice shifted down by one on every grant, with the same re-entrancy
// guard. It is the reference model the TokenPool is checked against.
type refPool struct {
	capacity, maxWait, inUse, waitPk int
	waiters                          []func()
	rejected                         uint64
	granting                         bool
}

func (p *refPool) Acquire(onGrant, onReject func()) {
	if p.inUse < p.capacity && len(p.waiters) == 0 {
		p.inUse++
		onGrant()
		return
	}
	if p.maxWait >= 0 && len(p.waiters) >= p.maxWait {
		p.rejected++
		if onReject != nil {
			onReject()
		}
		return
	}
	p.waiters = append(p.waiters, onGrant)
	if len(p.waiters) > p.waitPk {
		p.waitPk = len(p.waiters)
	}
}

func (p *refPool) Release() {
	p.inUse--
	p.grant()
}

func (p *refPool) grant() {
	if p.granting {
		return
	}
	p.granting = true
	for p.inUse < p.capacity && len(p.waiters) > 0 {
		w := p.waiters[0]
		copy(p.waiters, p.waiters[1:])
		p.waiters = p.waiters[:len(p.waiters)-1]
		p.inUse++
		w()
	}
	p.granting = false
}

func (p *refPool) Waiting() int      { return len(p.waiters) }
func (p *refPool) InUse() int        { return p.inUse }
func (p *refPool) rejectedN() uint64 { return p.rejected }
func (p *refPool) peak() int         { return p.waitPk }

// poolOps is the surface the pool scenario drives.
type poolOps interface {
	Acquire(onGrant, onReject func())
	Release()
	Waiting() int
	InUse() int
	rejectedN() uint64
	peak() int
}

type realPool struct{ *TokenPool }

func (p realPool) peak() int         { return p.waitPeak }
func (p realPool) rejectedN() uint64 { return p.rejected }

// poolScenario runs a seeded random workload against p and returns its
// log: every grant (with the Waiting and InUse its callback saw) and
// rejection, and the pool's counters after every operation. Each grant
// holds its token for a random time; some grant callbacks Acquire again
// from inside the grant, while the pool is still dispatching.
func poolScenario(seed int64, e *Engine, p poolOps, check func(op int)) []string {
	r := rand.New(rand.NewSource(seed))
	var log []string
	next := 0
	var acquire func()
	acquire = func() {
		id := next
		next++
		p.Acquire(func() {
			log = append(log, fmt.Sprintf("grant %d w=%d u=%d", id, p.Waiting(), p.InUse()))
			if next < 6000 && r.Intn(4) == 0 {
				acquire()
			}
			e.Schedule(r.Float64(), func() { p.Release() })
		}, func() {
			log = append(log, fmt.Sprintf("reject %d", id))
		})
	}
	for op := 0; op < 4000; op++ {
		fill := (op/400)%2 == 0
		if fill && r.Intn(40) < 18 {
			for n := r.Intn(3); n >= 0; n-- {
				acquire()
			}
		} else {
			e.Step()
		}
		log = append(log, fmt.Sprintf("op %d w=%d u=%d rej=%d peak=%d", op, p.Waiting(), p.InUse(), p.rejectedN(), p.peak()))
		if check != nil {
			check(op)
		}
	}
	e.Run()
	return append(log, fmt.Sprintf("end w=%d u=%d rej=%d peak=%d", p.Waiting(), p.InUse(), p.rejectedN(), p.peak()))
}

// TestTokenPoolMatchesReference checks the TokenPool's O(1) wait queue
// against the shifting-slice reference: the same grants and rejections
// in the same order, and the same Waiting, InUse, Rejected and wait peak
// at every step, with bounded and unbounded wait queues and Acquire
// called from inside grant callbacks.
func TestTokenPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		capacity := 1 + int(seed%3)
		maxWait := []int{-1, 4, -1, 40, -1, 0}[seed-1]
		var refEng Engine
		want := poolScenario(seed, &refEng, &refPool{capacity: capacity, maxWait: maxWait}, nil)

		var e Engine
		deep := false
		p := NewTokenPool(&e, "threads", capacity, maxWait)
		got := poolScenario(seed, &e, realPool{p}, func(op int) {
			if !fifoCompact(&p.waiters) {
				t.Fatalf("seed %d op %d: head %d of %d not compacted", seed, op, p.waiters.head, len(p.waiters.buf))
			}
			if p.waiters.head > 0 && p.waiters.len() > 0 {
				deep = true
			}
		})
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: log line %d = %q, reference %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: log lengths %d != %d", seed, len(got), len(want))
		}
		if maxWait != 0 && !deep {
			t.Fatalf("seed %d: no grant left waiters behind; the queue was never popped without draining", seed)
		}
		if p.InUse() != 0 || p.Waiting() != 0 {
			t.Fatalf("seed %d: pool not settled: %d in use, %d waiting", seed, p.InUse(), p.Waiting())
		}
	}
}
