package simnet

// Station models a multi-server FIFO queueing station (e.g. a node's CPU
// cores or its disk). Jobs arrive with a service demand in seconds; when a
// server is free the job occupies it for exactly that demand and then the
// completion callback fires.
//
// The station keeps a running integral of busy-server-seconds so callers can
// compute utilization over measurement windows via snapshots.
type Station struct {
	eng      *Engine
	svcFrame string // profiler frame "<name>/svc", built once
	servers  int
	speed    float64 // service rate multiplier; demand/speed = service time

	site uint8 // span attribution site (span.go); 0 = unattributed

	busy       int
	queue      fifo[stationJob]
	busyTime   float64 // integral of busy servers dt, up to lastStamp
	lastStamp  float64
	completed  uint64
	queuedPeak int

	// freeSvc recycles in-service completion records so steady-state
	// Submit/complete cycles are allocation-free: each record carries a
	// fire closure allocated once, scheduled in place of a fresh per-job
	// closure. See DESIGN.md §7.
	freeSvc []*svcRecord
}

type stationJob struct {
	demand float64
	done   func()
	attr   attr // submitter's context, extended by "<station>/svc"
}

// svcRecord is one in-service job's completion state. fire is allocated
// once per record and reused across recycles; it dispatches back into the
// owning station, which releases the record before running the job's done
// callback (mirroring the engine's release-before-callback discipline).
// fire is scheduled under the submitter's context, so the completion finds
// the submitter's span in the engine's current context.
type svcRecord struct {
	st   *Station
	done func()
	fire func()
}

// getSvc returns a recycled service record, or a fresh one.
func (s *Station) getSvc(done func()) *svcRecord {
	var r *svcRecord
	if n := len(s.freeSvc); n > 0 {
		r = s.freeSvc[n-1]
		s.freeSvc[n-1] = nil
		s.freeSvc = s.freeSvc[:n-1]
	} else {
		r = &svcRecord{st: s}
		r.fire = func() { r.st.complete(r) }
	}
	r.done = done
	return r
}

// putSvc recycles a service record, dropping its callback reference.
func (s *Station) putSvc(r *svcRecord) {
	r.done = nil
	s.freeSvc = append(s.freeSvc, r)
}

// SetSpanSite assigns the station's span attribution site; segments the
// station records carry it (span.go).
func (s *Station) SetSpanSite(site uint8) { s.site = site }

// NewStation creates a station with the given number of parallel servers.
// speed scales service times: a job with demand d takes d/speed seconds.
func NewStation(eng *Engine, name string, servers int, speed float64) *Station {
	if servers <= 0 {
		panic("simnet: station needs at least one server")
	}
	if speed <= 0 {
		panic("simnet: station speed must be positive")
	}
	return &Station{eng: eng, svcFrame: name + "/svc", servers: servers, speed: speed, lastStamp: eng.Now()}
}

// SetSpeed changes the service-rate multiplier for jobs started afterwards.
// Used to model thrashing slowdowns from memory pressure.
func (s *Station) SetSpeed(speed float64) {
	if speed <= 0 {
		panic("simnet: station speed must be positive")
	}
	s.speed = speed
}

func (s *Station) stamp() {
	now := s.eng.Now()
	s.busyTime += float64(s.busy) * (now - s.lastStamp)
	s.lastStamp = now
}

// Submit enqueues a job with the given service demand; done runs when the
// job completes service. Demand may be zero, in which case the job still
// cycles through the queue discipline.
func (s *Station) Submit(demand float64, done func()) {
	if demand < 0 {
		demand = 0
	}
	// The service completion is attributed to the context that submitted
	// the job (stack extended by "station/svc"), not to whichever event
	// later pops it off the queue.
	a := s.eng.deferred(s.svcFrame)
	if s.busy < s.servers {
		s.start(demand, done, a)
		return
	}
	s.queue.push(stationJob{demand: demand, done: done, attr: a})
	if s.queue.len() > s.queuedPeak {
		s.queuedPeak = s.queue.len()
	}
}

func (s *Station) start(demand float64, done func(), a attr) {
	s.stamp()
	s.busy++
	if a.span != nil {
		// Whatever elapsed since Submit was time in this station's queue.
		a.span.Mark(s.site, SpanQueue, s.eng.NowTicks())
	}
	s.eng.scheduleAttr(demand/s.speed, a, s.getSvc(done).fire)
}

// complete finishes one job's service: the record is recycled first, then
// the next queued job starts, then the job's completion callback runs —
// the same order the per-job closures used, so event sequences are
// unchanged.
func (s *Station) complete(r *svcRecord) {
	done := r.done
	if span := s.eng.cur.span; span != nil {
		span.Mark(s.site, SpanService, s.eng.NowTicks())
	}
	s.putSvc(r)
	s.stamp()
	s.busy--
	s.completed++
	if s.queue.len() > 0 {
		next := s.queue.pop()
		s.start(next.demand, next.done, next.attr)
	}
	if done != nil {
		done()
	}
}

// QueueLen returns the number of jobs waiting (not in service).
func (s *Station) QueueLen() int { return s.queue.len() }

// Busy returns the number of servers currently serving a job.
func (s *Station) Busy() int { return s.busy }

// Completed returns the number of jobs that have finished service.
func (s *Station) Completed() uint64 { return s.completed }

// BusyTime returns the cumulative busy-server-seconds up to now.
func (s *Station) BusyTime() float64 {
	s.stamp()
	return s.busyTime
}

// Utilization returns average utilization in (fromTime, now] given the
// BusyTime snapshot taken at fromTime. Result is in [0, 1].
func (s *Station) Utilization(busyAtFrom, fromTime float64) float64 {
	elapsed := s.eng.Now() - fromTime
	if elapsed <= 0 {
		return 0
	}
	u := (s.BusyTime() - busyAtFrom) / (elapsed * float64(s.servers))
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// TokenPool is a counting semaphore with a FIFO wait queue of bounded
// length. It models thread pools (tokens = threads) and connection limits;
// the wait-queue bound models an accept/backlog queue, with arrivals beyond
// it rejected.
type TokenPool struct {
	eng        *Engine
	name       string
	grantFrame string // profiler frame "<name>/grant", built once
	capacity   int
	maxWait    int   // -1 means unbounded
	site       uint8 // span attribution site (span.go); 0 = unattributed

	inUse    int
	waiters  fifo[waiter]
	rejected uint64
	waitPeak int
	granting bool // grantWaiters is draining; re-entrant calls return
}

// waiter is one queued Acquire: its grant callback plus the context
// captured when the request started waiting, so the eventual grant is
// charged to the acquirer, not to whichever event released the token.
type waiter struct {
	fn   func()
	attr attr // acquirer's context, extended by "<pool>/grant"
}

// NewTokenPool creates a pool of capacity tokens whose wait queue holds at
// most maxWait requests (maxWait < 0 means unbounded).
func NewTokenPool(eng *Engine, name string, capacity, maxWait int) *TokenPool {
	if capacity <= 0 {
		panic("simnet: token pool needs positive capacity")
	}
	return &TokenPool{eng: eng, name: name, grantFrame: name + "/grant", capacity: capacity, maxWait: maxWait}
}

// SetSpanSite assigns the pool's span attribution site; the wait segments
// it records carry it (span.go).
func (p *TokenPool) SetSpanSite(site uint8) { p.site = site }

// Capacity returns the number of tokens.
func (p *TokenPool) Capacity() int { return p.capacity }

// Acquire requests a token. If one is free and nobody is queued ahead,
// onGrant runs immediately (synchronously). If the wait queue has room,
// the request waits FIFO and onGrant runs when a token frees up. Otherwise
// onReject (if non-nil) runs immediately and the request counts as
// rejected.
//
// The empty-queue guard matters only while grantWaiters is
// dispatching: there a token can be momentarily free while earlier
// requests are still queued, and an Acquire from inside a grant callback
// must queue behind them rather than barge past the FIFO order.
func (p *TokenPool) Acquire(onGrant func(), onReject func()) {
	if p.inUse < p.capacity && p.waiters.len() == 0 {
		p.inUse++
		onGrant()
		return
	}
	if p.maxWait >= 0 && p.waiters.len() >= p.maxWait {
		p.rejected++
		if onReject != nil {
			onReject()
		}
		return
	}
	p.waiters.push(waiter{fn: onGrant, attr: p.eng.deferred(p.grantFrame)})
	if p.waiters.len() > p.waitPeak {
		p.waitPeak = p.waiters.len()
	}
}

// Release returns a token to the pool, waking the oldest waiter if any.
func (p *TokenPool) Release() {
	if p.inUse <= 0 {
		panic("simnet: Release without matching Acquire on pool " + p.name)
	}
	p.inUse--
	p.grantWaiters()
}

// grantWaiters grants tokens to queued waiters in FIFO order. Grant
// callbacks run synchronously and may re-enter the pool (Acquire,
// Release); the granting flag turns a re-entrant call into a no-op — the
// outermost loop re-checks capacity after every callback and keeps
// draining — so only the outermost loop pops the queue and recursion
// depth stays bounded no matter how grants chain.
func (p *TokenPool) grantWaiters() {
	if p.granting {
		return
	}
	p.granting = true
	for p.inUse < p.capacity && p.waiters.len() > 0 {
		w := p.waiters.pop()
		p.inUse++
		e := p.eng
		if w.attr.span != nil {
			// The time since Acquire queued is this pool's wait; the grant
			// callback runs under the waiter's context, not the releaser's.
			w.attr.span.Mark(p.site, SpanQueue, e.NowTicks())
		}
		saved := e.cur
		e.cur = w.attr
		w.fn()
		e.cur = saved
	}
	p.granting = false
}

// InUse returns the number of tokens currently held.
func (p *TokenPool) InUse() int { return p.inUse }

// Waiting returns the number of requests in the wait queue.
func (p *TokenPool) Waiting() int { return p.waiters.len() }
