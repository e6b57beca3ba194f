// Package recycle keeps the storage of finished simulations for the next
// ones to reuse (DESIGN.md §10). A hermetic evaluation builds a lab,
// simulates one window and drops the lab; without recycling, every window
// allocates its proxy stores, size table, response-time sample and request
// records afresh, and the garbage collector's work comes out of simulation
// time.
package recycle

import "sync"

// Pool is a free list of released values, safe for concurrent use.
//
// Unlike sync.Pool it never drops a value and has no per-P slots. It
// holds exactly what was released and not yet taken again, which for
// simulator storage is at most one set per lab that ran at the same time,
// and a Get after a Put always hits, whichever goroutine asks.
type Pool[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get takes the most recently released value, or reports false when the
// pool is empty.
func (p *Pool[T]) Get() (v T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return v, false
	}
	v = p.free[n-1]
	var zero T
	p.free[n-1] = zero
	p.free = p.free[:n-1]
	return v, true
}

// Put releases v for a later Get. The caller must not use v afterwards.
func (p *Pool[T]) Put(v T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
