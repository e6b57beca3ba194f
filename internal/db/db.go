// Package db models the backend tier: a MySQL-3.23-like database server
// governed by the nine tunable parameters of Table 3 of the paper.
//
// The qualitative effects reproduced:
//
//   - max_connections caps concurrent client connections; the ordering
//     workload's long transactions need far more than the default 100.
//   - thread_con (thread_concurrency) caps queries executing at once;
//     raising it helps under load but each running thread costs
//     thread_stack bytes of memory.
//   - table_cache below the working set forces table re-opens (extra CPU
//     and a disk seek), so the tuner pushes it up (Table 3: 64 → ~800).
//   - binlog_cache_size below the transaction log size spills the binlog
//     to disk; ordering transactions are the largest.
//   - join_buffer_size costs memory per concurrent thread but barely
//     affects service times — the paper's observation that shrinking it
//     (8 MB → ~400 KB) freed memory without hurting performance.
//   - net_buffer_length trades per-KB result transfer CPU against memory.
//   - delayed_insert_limit / delayed_queue_size batch insert flushes.
package db

import (
	"fmt"

	"webharmony/internal/cluster"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
)

// Parameter names, as in Table 3.
const (
	ParamBinlogCacheSize    = "binlog_cache_size"
	ParamDelayedInsertLimit = "delayed_insert_limit"
	ParamMaxConnections     = "max_connections"
	ParamDelayedQueueSize   = "delayed_queue_size"
	ParamJoinBufferSize     = "join_buffer_size"
	ParamNetBufferLength    = "net_buffer_length"
	ParamTableCache         = "table_cache"
	ParamThreadConcurrency  = "thread_con"
	ParamThreadStack        = "thread_stack"
)

// space is the tier's one parameter space. param.Space has no mutating
// method, so every caller shares it.
var space = param.MustSpace(
	param.Def{Name: ParamBinlogCacheSize, Min: 4096, Max: 1048576, Default: 32768, Step: 1024, Unit: "bytes"},
	param.Def{Name: ParamDelayedInsertLimit, Min: 10, Max: 1000, Default: 100, Step: 10, Unit: "rows"},
	param.Def{Name: ParamMaxConnections, Min: 1, Max: 1001, Default: 101, Step: 25, Unit: "connections"},
	param.Def{Name: ParamDelayedQueueSize, Min: 100, Max: 10000, Default: 1000, Step: 100, Unit: "rows"},
	param.Def{Name: ParamJoinBufferSize, Min: 4096, Max: 16777216, Default: 8388608, Step: 2048, Unit: "bytes"},
	param.Def{Name: ParamNetBufferLength, Min: 1024, Max: 65536, Default: 16384, Step: 1024, Unit: "bytes"},
	param.Def{Name: ParamTableCache, Min: 16, Max: 1024, Default: 64, Step: 1, Unit: "tables"},
	param.Def{Name: ParamThreadConcurrency, Min: 1, Max: 128, Default: 10, Step: 1, Unit: "threads"},
	param.Def{Name: ParamThreadStack, Min: 65536, Max: 2097152, Default: 65536, Step: 1024, Unit: "bytes"},
)

// Space returns the database tier's tunable-parameter space with the
// paper's default values (64-KB thread_stack default rounded to its
// power-of-two lattice point).
func Space() *param.Space { return space }

// Config is the decoded database configuration.
type Config struct {
	BinlogCacheSize    int64
	DelayedInsertLimit int64
	MaxConnections     int64
	DelayedQueueSize   int64
	JoinBufferSize     int64
	NetBufferLength    int64
	TableCache         int64
	ThreadConcurrency  int64
	ThreadStack        int64
}

// DecodeConfig interprets a param.Config laid out per Space().
func DecodeConfig(c param.Config) Config {
	sp := space
	if len(c) != sp.Len() {
		panic(fmt.Sprintf("db: config has %d values, want %d", len(c), sp.Len()))
	}
	get := func(name string) int64 { return c[sp.IndexOf(name)] }
	return Config{
		BinlogCacheSize:    get(ParamBinlogCacheSize),
		DelayedInsertLimit: get(ParamDelayedInsertLimit),
		MaxConnections:     get(ParamMaxConnections),
		DelayedQueueSize:   get(ParamDelayedQueueSize),
		JoinBufferSize:     get(ParamJoinBufferSize),
		NetBufferLength:    get(ParamNetBufferLength),
		TableCache:         get(ParamTableCache),
		ThreadConcurrency:  get(ParamThreadConcurrency),
		ThreadStack:        get(ParamThreadStack),
	}
}

// MemoryFootprint returns the bytes of node memory the server consumes.
// Per-thread buffers (stack and join buffer) scale with thread_con, and
// per-connection buffers with max_connections — the couplings that let the
// tuner trade join_buffer_size for more threads, as in Table 3.
func (c Config) MemoryFootprint() int64 {
	const (
		baseline   = 64 << 20 // server code, key buffer, dictionary
		rowSize    = 256      // delayed-insert queue row
		connExtra  = 16 << 10 // per-connection session state
		activeFrac = 2        // ~half the running threads hold a join buffer
	)
	perConn := c.NetBufferLength*2 + connExtra
	perThread := c.ThreadStack + c.JoinBufferSize/activeFrac
	return baseline +
		c.MaxConnections*perConn +
		c.ThreadConcurrency*perThread +
		c.DelayedQueueSize*rowSize +
		c.BinlogCacheSize*(c.ThreadConcurrency/4+1)
}

// QueryKind classifies database requests.
type QueryKind int

const (
	// QueryRead is a simple indexed select (product detail, cart read).
	QueryRead QueryKind = iota
	// QueryJoin is a multi-table select (best sellers, search results).
	QueryJoin
	// QueryWrite is a transactional insert/update (buy confirm, cart add).
	QueryWrite
)

// String returns the query-kind name.
func (k QueryKind) String() string {
	switch k {
	case QueryRead:
		return "read"
	case QueryJoin:
		return "join"
	case QueryWrite:
		return "write"
	default:
		return "unknown"
	}
}

// CostModel holds the cost coefficients of the query engine.
type CostModel struct {
	ParseCost     float64 // CPU seconds to parse/plan a query
	RowCost       float64 // CPU seconds per KB of result produced
	JoinExtraCost float64 // additional CPU for join queries
	WorkingTables int64   // tables touched by the TPC-W schema workload
	ReadMissProb  float64 // buffer-pool miss probability for reads
	ReadMissBytes int64   // bytes fetched from disk on a miss
	WriteLogBytes int64   // bytes appended to the log per transaction
	TxnSizeMu     float64 // lognormal mu of transaction binlog size
	TxnSizeSigma  float64 // lognormal sigma of transaction binlog size
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		ParseCost:     0.0010,
		RowCost:       0.00005,
		JoinExtraCost: 0.0012,
		WorkingTables: 420,
		ReadMissProb:  0.18,
		ReadMissBytes: 16 << 10,
		WriteLogBytes: 20 << 10,
		TxnSizeMu:     10.2, // median ≈ 27 KB
		TxnSizeSigma:  0.8,
	}
}

// Server is one database instance bound to a cluster node.
type Server struct {
	cfg     Config
	cost    CostModel
	node    *cluster.Node
	conns   *simnet.TokenPool
	threads *simnet.TokenPool
	src     *rng.Source

	// free recycles per-query records so the steady-state query path
	// allocates no closures; see the query type and DESIGN.md §7.
	free []*query
}

// New creates a database server on the given node. src drives the
// stochastic parts of the cost model (cache misses, transaction sizes).
func New(eng *simnet.Engine, node *cluster.Node, cfg Config, cost CostModel, src *rng.Source) *Server {
	backlog := int(cfg.MaxConnections) // listen backlog beyond the limit
	s := &Server{
		cfg:     cfg,
		cost:    cost,
		node:    node,
		conns:   simnet.NewTokenPool(eng, node.Name()+".conns", int(cfg.MaxConnections), backlog),
		threads: simnet.NewTokenPool(eng, node.Name()+".threads", int(cfg.ThreadConcurrency), -1),
		src:     src,
	}
	s.conns.SetSpanSite(cluster.SpanSiteDBConnPool)
	s.threads.SetSpanSite(cluster.SpanSiteDBThreadPool)
	return s
}

// PoolOccupancy returns the connection pool's in-use, waiting and capacity
// counts, for diagnostics and the telemetry sampler.
func (s *Server) PoolOccupancy() (inUse, waiting, capacity int) {
	return s.conns.InUse(), s.conns.Waiting(), s.conns.Capacity()
}

// netEfficiency returns the result-transfer CPU multiplier for the
// configured net buffer (small buffers mean more packets and syscalls).
func (s *Server) netEfficiency() float64 {
	refKB := 32.0
	bufKB := float64(s.cfg.NetBufferLength) / 1024
	return 1 + refKB/(refKB+bufKB)
}

// tableReopenProb returns the probability a query must re-open a table
// because the descriptor cache is smaller than the working set.
func (s *Server) tableReopenProb() float64 {
	if s.cfg.TableCache >= s.cost.WorkingTables {
		return 0
	}
	return 1 - float64(s.cfg.TableCache)/float64(s.cost.WorkingTables)
}

// insertBatchFactor returns the disk-cost divisor for delayed inserts:
// a larger delayed queue amortizes more flushes (diminishing returns),
// while a tiny delayed_insert_limit caps the benefit.
func (s *Server) insertBatchFactor() float64 {
	batch := float64(s.cfg.DelayedQueueSize) / 100
	if lim := float64(s.cfg.DelayedInsertLimit); batch > lim {
		batch = lim
	}
	if batch < 1 {
		batch = 1
	}
	// log2 amortization: queue 100 → 1x, 800 → 4x, 6400 → ~7x.
	f := 1.0
	for b := batch; b > 1; b /= 2 {
		f++
	}
	return f
}

// query stages. The stage names the event whose completion the query is
// waiting on; qFree is the recycled sentinel — a dispatch on it means a
// stale callback fired on a recycled record, and panics.
const (
	qFree int8 = iota
	qConnGrant
	qThreadGrant
	qExecuted
	qDiskDone
	qSent
)

// query is one in-flight database request's state: the pooled replacement
// for the closure chain Query/execute used to build per request. Its two
// callbacks are method values allocated once when the record is first
// created and reused across recycles; records return to the server's free
// list before the request's done callback runs.
type query struct {
	srv         *Server
	kind        QueryKind
	resultBytes int64
	done        func(ok bool)
	diskSeconds float64
	stage       int8

	stepFn   func() // bound step, scheduled per stage advance
	rejectFn func() // bound reject, passed to the connection Acquire
}

// getQuery returns a recycled query record, or a fresh one with its
// callbacks bound.
func (s *Server) getQuery(kind QueryKind, resultBytes int64, done func(ok bool)) *query {
	var q *query
	if n := len(s.free); n > 0 {
		q = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		q = &query{srv: s}
		q.stepFn = q.step
		q.rejectFn = q.reject
	}
	q.kind = kind
	q.resultBytes = resultBytes
	q.done = done
	return q
}

// putQuery recycles a query record, dropping its callback reference and
// arming the stale-dispatch sentinel.
func (s *Server) putQuery(q *query) {
	q.done = nil
	q.stage = qFree
	s.free = append(s.free, q)
}

// step advances the query through the same event sequence the closure
// chain produced: connection grant → thread grant → CPU → (disk) → NIC →
// completion.
func (q *query) step() {
	s := q.srv
	switch q.stage {
	case qConnGrant:
		q.stage = qThreadGrant
		s.threads.Acquire(q.stepFn, nil) // thread queue is unbounded; connections bound admission
	case qThreadGrant:
		q.execute()
	case qExecuted:
		if q.diskSeconds > 0 {
			q.stage = qDiskDone
			s.node.Disk().Submit(q.diskSeconds, q.stepFn)
			return
		}
		q.stage = qSent
		s.node.NIC().Submit(s.node.NetDemand(q.resultBytes), q.stepFn)
	case qDiskDone:
		q.stage = qSent
		s.node.NIC().Submit(s.node.NetDemand(q.resultBytes), q.stepFn)
	case qSent:
		done := q.done
		s.putQuery(q)
		s.threads.Release()
		s.conns.Release()
		done(true)
	default:
		panic("db: query stepped after release")
	}
}

// reject handles a shed connection at the listener.
func (q *query) reject() {
	s := q.srv
	if q.stage != qConnGrant {
		panic("db: query rejected after release")
	}
	done := q.done
	s.putQuery(q)
	done(false)
}

// Query executes a database request of the given kind producing
// resultBytes of output. done(ok) fires on completion; ok=false means the
// connection was shed at the listener.
func (s *Server) Query(kind QueryKind, resultBytes int64, done func(ok bool)) {
	q := s.getQuery(kind, resultBytes, done)
	q.stage = qConnGrant
	s.conns.Acquire(q.stepFn, q.rejectFn)
}

// execute runs the query body on the node's resources: the cost-model
// draws happen here, in the same order the closure pipeline made them,
// and the resulting CPU/disk/NIC demands drive the remaining stages.
func (q *query) execute() {
	s := q.srv
	cpu := s.cost.ParseCost
	if q.kind == QueryJoin {
		cpu += s.cost.JoinExtraCost
		// An undersized join buffer costs a little extra CPU for block
		// nested-loop passes; above ~256 KB the effect vanishes. This is
		// deliberately small: the paper found join_buffer_size did not
		// matter for performance (only for memory).
		if s.cfg.JoinBufferSize < 256<<10 {
			cpu += 0.0004
		}
	}
	cpu += s.cost.RowCost * float64(q.resultBytes) / 1024 * s.netEfficiency()

	// Stack-cramped threads re-allocate frames for deep plans.
	if s.cfg.ThreadStack < 96<<10 {
		cpu += 0.0002
	}

	diskSeconds := 0.0
	if q.kind == QueryWrite {
		txn := int64(s.src.LogNormal(s.cost.TxnSizeMu, s.cost.TxnSizeSigma))
		logBytes := s.cost.WriteLogBytes
		if txn > s.cfg.BinlogCacheSize {
			// Binlog cache spill: the whole transaction goes through disk.
			logBytes += txn
		}
		// Group commit: delayed-queue batching amortizes the whole flush
		// (seek + transfer), not just the bytes.
		diskSeconds += s.node.DiskDemand(logBytes) / s.insertBatchFactor()
		// Updates read the rows they modify; those reads miss too.
		if s.src.Bernoulli(s.cost.ReadMissProb) {
			diskSeconds += s.node.DiskDemand(s.cost.ReadMissBytes)
		}
	} else if s.src.Bernoulli(s.cost.ReadMissProb) {
		diskSeconds += s.node.DiskDemand(s.cost.ReadMissBytes)
	}
	if s.src.Bernoulli(s.tableReopenProb()) {
		cpu += 0.0008
		diskSeconds += s.node.DiskDemand(4 << 10) // .frm read
	}

	q.diskSeconds = diskSeconds
	q.stage = qExecuted
	s.node.CPU().Submit(cpu, q.stepFn)
}
