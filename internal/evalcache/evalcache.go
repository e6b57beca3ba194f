// Package evalcache memoizes hermetic evaluations: a deterministic,
// content-addressed table from a canonical evaluation key — the complete
// input set of one warm/measure/cool simulation window — to the
// websim.Measurement that window produces.
//
// The cache is sound only under the hermetic-evaluation discipline the
// experiment runners follow (see DESIGN.md §10): every evaluation runs in
// a fresh lab whose rng streams derive from the evaluation key alone, so
// the measurement is a pure function of the key and a cache hit returns
// byte-for-byte what the simulation would have measured. Memoization then
// cannot change any experiment's output — it only skips re-simulating
// exact repeats, which the tuning kernels produce constantly (integer
// rounding, shrink steps near convergence, post-shift restarts) and the
// Figure 4 matrix produces by design (the same (config, workload) pair
// re-measured for every evaluation window).
//
// Concurrent lookups of the same key are single-flight: the first caller
// simulates, later callers wait and share the result. That keeps the
// hit/miss counters deterministic at any worker count — misses equal the
// number of distinct keys, hits equal lookups minus misses — so the
// `webtune -evalstats` report is as reproducible as the experiments.
package evalcache

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"webharmony/internal/param"
	"webharmony/internal/websim"
)

// Spec is the complete input set of one hermetic evaluation: the lab
// topology and load, the iteration window lengths, the base seed the
// evaluation's rng streams derive from, the workload name and the staged
// node→configuration assignment. Two evaluations with equal Specs are the
// same simulation.
type Spec struct {
	ProxyNodes int
	AppNodes   int
	DBNodes    int
	WorkLines  int

	Browsers  int
	ThinkMean float64
	Scale     int
	Sessions  bool

	Warm    float64
	Measure float64
	Cool    float64

	Seed uint64

	Workload string
	Nodes    map[int]param.Config
}

// Key is a canonical, collision-resistant encoding of a Spec: the cache
// index. String() is the full canonical form (every field delimited or
// length-prefixed, floats in exact hex notation, node entries sorted by
// node ID); Hash() is a 64-bit digest of that form, used to derive the
// evaluation's rng seed so that the whole simulation is a pure function
// of the key.
type Key struct {
	c string
	h uint64
}

// String returns the canonical encoding. Two Specs encode to the same
// string exactly when they describe the same evaluation.
func (k Key) String() string { return k.c }

// Hash returns the FNV-1a digest of the canonical encoding.
func (k Key) Hash() uint64 { return k.h }

// hexFloat renders a float in exact hexadecimal notation: every distinct
// bit pattern (including NaN and the infinities, which strconv prints as
// "NaN"/"+Inf"/"-Inf") gets a distinct, round-trippable token.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// Key builds the canonical evaluation key. The encoding is versioned and
// unambiguous: fixed fields are '|'-delimited "name=value" pairs, the
// workload is length-prefixed (its name is free text), and node entries
// are sorted by node ID with explicit value counts, so no two distinct
// Specs can collide. FuzzEvalKey exercises exactly these properties.
func (s Spec) Key() Key {
	var b strings.Builder
	fmt.Fprintf(&b, "eval/v1|shape=%d/%d/%d/%d|browsers=%d|think=%s|scale=%d|sessions=%t",
		s.ProxyNodes, s.AppNodes, s.DBNodes, s.WorkLines,
		s.Browsers, hexFloat(s.ThinkMean), s.Scale, s.Sessions)
	fmt.Fprintf(&b, "|win=%s,%s,%s|seed=%d",
		hexFloat(s.Warm), hexFloat(s.Measure), hexFloat(s.Cool), s.Seed)
	fmt.Fprintf(&b, "|wl=%d:%s|nodes=%d", len(s.Workload), s.Workload, len(s.Nodes))
	ids := make([]int, 0, len(s.Nodes))
	for id := range s.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		cfg := s.Nodes[id]
		fmt.Fprintf(&b, "|n%d=%d:%s", id, len(cfg), cfg.Key())
	}
	c := b.String()
	h := fnv.New64a()
	h.Write([]byte(c))
	return Key{c: c, h: h.Sum64()}
}

// Stats is the cache's counter set. All counts are deterministic at any
// worker count: lookups depend only on the evaluation sequence, misses
// equal the number of distinct keys simulated (single-flight guarantees
// each is simulated exactly once), and hits are the difference. Bytes
// approximates the resident size of the stored entries (key bytes plus
// 8 bytes per stored numeric field).
type Stats struct {
	Lookups uint64
	Hits    uint64
	Misses  uint64
	Entries uint64
	Bytes   uint64
}

// HitRate returns Hits/Lookups, or 0 before the first lookup.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// entry is one memoized evaluation. done is closed once m is valid (or
// the compute panicked); waiters block on it.
type entry struct {
	done     chan struct{}
	m        websim.Measurement
	panicked any
}

// Cache is the content-addressed memo table. Safe for concurrent use;
// the experiment runners share one cache across their whole worker pool.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry

	lookups uint64
	hits    uint64
	misses  uint64
	bytes   uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[string]*entry)}
}

// Do returns the measurement for key, invoking compute to simulate it on
// first use. Concurrent callers with the same key coalesce: one computes,
// the rest wait and share the result. The boolean reports whether the
// value came from the cache (true) or from this call's compute (false).
// A panicking compute is re-raised on every caller of the key.
func (c *Cache) Do(key Key, compute func() websim.Measurement) (websim.Measurement, bool) {
	c.mu.Lock()
	c.lookups++
	if e, ok := c.entries[key.String()]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.done
		if e.panicked != nil {
			panic(e.panicked)
		}
		return cloneMeasurement(e.m), true
	}
	e := &entry{done: make(chan struct{})}
	c.entries[key.String()] = e
	c.misses++
	c.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			close(e.done)
			panic(r)
		}
	}()
	m := compute()
	e.m = cloneMeasurement(m)
	c.mu.Lock()
	c.bytes += uint64(len(key.String())) + measurementBytes(e.m)
	c.mu.Unlock()
	close(e.done)
	return cloneMeasurement(e.m), false
}

// add installs a precomputed entry (a warm start from a snapshot). It
// counts toward Entries and Bytes but not Lookups/Hits/Misses; a lookup
// that finds it later counts as a hit. Existing entries win: a live
// in-flight computation is never replaced.
func (c *Cache) add(key string, m websim.Measurement) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &entry{done: make(chan struct{}), m: cloneMeasurement(m)}
	close(e.done)
	c.entries[key] = e
	c.bytes += uint64(len(key)) + measurementBytes(e.m)
	return true
}

// Stats returns the current counter values.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Lookups: c.lookups,
		Hits:    c.hits,
		Misses:  c.misses,
		Entries: uint64(len(c.entries)),
		Bytes:   c.bytes,
	}
}

// cloneMeasurement deep-copies the one reference field so cached values
// can never alias a caller's slice.
func cloneMeasurement(m websim.Measurement) websim.Measurement {
	if m.LineWIPS != nil {
		m.LineWIPS = append([]float64(nil), m.LineWIPS...)
	}
	return m
}

// measurementBytes approximates a stored measurement's size: 8 bytes per
// numeric field. Deterministic by construction (no pointer sizes or
// allocator rounding involved).
func measurementBytes(m websim.Measurement) uint64 {
	const floats = 8 // WIPS, WIPSb, WIPSo, ErrorRate, RespMean, RespP50, RespP90, RespP99
	counters := uint64(len(m.Counters.Completed)) + 3
	return 8 * (floats + counters + uint64(len(m.LineWIPS)))
}
