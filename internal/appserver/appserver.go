// Package appserver models the middleware tier: a Tomcat-like application
// server with an HTTP connector and an AJP (servlet-worker) connector, each
// a bounded thread pool with a bounded accept queue, governed by the seven
// Tomcat parameters of Table 3 of the paper.
//
// The key behaviour reproduced from the paper: a worker thread is held for
// the whole request, including while it waits on the database. Workloads
// whose requests spend long in the database (ordering) therefore need many
// more threads than workloads that mostly serve computed pages (browsing) —
// which is exactly the shift Table 3 shows for min/maxProcessors and the
// AJP pool. More threads, however, cost memory (thread stacks and request
// buffers), coupling this tier to the node's 1 GB memory budget.
package appserver

import (
	"fmt"

	"webharmony/internal/cluster"
	"webharmony/internal/param"
	"webharmony/internal/simnet"
)

// Parameter names, as in Table 3.
const (
	ParamMinProcessors    = "minProcessors"
	ParamMaxProcessors    = "maxProcessors"
	ParamAcceptCount      = "acceptCount"
	ParamBufferSize       = "bufferSize"
	ParamAJPMinProcessors = "AJPminProcessors"
	ParamAJPMaxProcessors = "AJPmaxProcessors"
	ParamAJPAcceptCount   = "AJPacceptCount"
)

// Space returns the application tier's tunable-parameter space with the
// paper's default values.
func Space() *param.Space {
	return param.MustSpace(
		param.Def{Name: ParamMinProcessors, Min: 1, Max: 256, Default: 5, Step: 1, Unit: "threads"},
		param.Def{Name: ParamMaxProcessors, Min: 1, Max: 512, Default: 20, Step: 1, Unit: "threads"},
		param.Def{Name: ParamAcceptCount, Min: 1, Max: 1024, Default: 10, Step: 1, Unit: "requests"},
		param.Def{Name: ParamBufferSize, Min: 512, Max: 16384, Default: 2048, Step: 1, Unit: "bytes"},
		param.Def{Name: ParamAJPMinProcessors, Min: 1, Max: 256, Default: 5, Step: 1, Unit: "threads"},
		param.Def{Name: ParamAJPMaxProcessors, Min: 1, Max: 512, Default: 20, Step: 1, Unit: "threads"},
		param.Def{Name: ParamAJPAcceptCount, Min: 1, Max: 1024, Default: 10, Step: 1, Unit: "requests"},
	)
}

// Config is the decoded application-server configuration.
type Config struct {
	MinProcessors    int64
	MaxProcessors    int64
	AcceptCount      int64
	BufferSize       int64
	AJPMinProcessors int64
	AJPMaxProcessors int64
	AJPAcceptCount   int64
}

// DecodeConfig interprets a param.Config laid out per Space(). As in
// Tomcat, maxProcessors below minProcessors is raised to minProcessors.
func DecodeConfig(c param.Config) Config {
	sp := Space()
	if len(c) != sp.Len() {
		panic(fmt.Sprintf("appserver: config has %d values, want %d", len(c), sp.Len()))
	}
	get := func(name string) int64 { return c[sp.IndexOf(name)] }
	cfg := Config{
		MinProcessors:    get(ParamMinProcessors),
		MaxProcessors:    get(ParamMaxProcessors),
		AcceptCount:      get(ParamAcceptCount),
		BufferSize:       get(ParamBufferSize),
		AJPMinProcessors: get(ParamAJPMinProcessors),
		AJPMaxProcessors: get(ParamAJPMaxProcessors),
		AJPAcceptCount:   get(ParamAJPAcceptCount),
	}
	if cfg.MaxProcessors < cfg.MinProcessors {
		cfg.MaxProcessors = cfg.MinProcessors
	}
	if cfg.AJPMaxProcessors < cfg.AJPMinProcessors {
		cfg.AJPMaxProcessors = cfg.AJPMinProcessors
	}
	return cfg
}

// MemoryFootprint returns the bytes of node memory the server consumes:
// JVM baseline plus per-thread stacks and request buffers for both pools.
func (c Config) MemoryFootprint() int64 {
	const (
		jvmBase     = 96 << 20 // JVM heap and code
		threadStack = 1 << 20  // per-thread stack + session state
	)
	httpThreads := c.MaxProcessors
	ajpThreads := c.AJPMaxProcessors
	return jvmBase +
		httpThreads*(threadStack+c.BufferSize*4) +
		ajpThreads*(threadStack/2+c.BufferSize*2)
}

// CostModel holds the CPU cost coefficients of the servlet engine; the
// defaults are calibrated so a single default-configured node saturates at
// roughly the paper's per-node request rates.
type CostModel struct {
	ParseCost   float64 // fixed request parse/dispatch CPU seconds
	PerKBCost   float64 // CPU seconds per KB of response generated
	BufferRefKB float64 // reference buffer size for IO efficiency
	ThreadOver  float64 // per-active-thread scheduling overhead factor
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		ParseCost:   0.0012,
		PerKBCost:   0.0002,
		BufferRefKB: 8,
		ThreadOver:  0.000003,
	}
}

// Server is one application-server instance bound to a cluster node.
type Server struct {
	cfg  Config
	cost CostModel
	node *cluster.Node
	http *simnet.TokenPool
	ajp  *simnet.TokenPool

	// free recycles per-request call records so the steady-state request
	// path allocates no closures; see the call type and DESIGN.md §7.
	free []*call
}

// New creates an application server on the given node.
func New(eng *simnet.Engine, node *cluster.Node, cfg Config, cost CostModel) *Server {
	s := &Server{
		cfg:  cfg,
		cost: cost,
		node: node,
		http: simnet.NewTokenPool(eng, node.Name()+".http", int(cfg.MaxProcessors), int(cfg.AcceptCount)),
		ajp:  simnet.NewTokenPool(eng, node.Name()+".ajp", int(cfg.AJPMaxProcessors), int(cfg.AJPAcceptCount)),
	}
	s.http.SetSpanSite(cluster.SpanSiteAppHTTPPool)
	s.ajp.SetSpanSite(cluster.SpanSiteAppAJPPool)
	return s
}

// bufferEfficiency returns the IO-cost multiplier for the configured
// buffer size: small buffers cause extra write syscalls; very large
// buffers stop helping (diminishing returns).
func (s *Server) bufferEfficiency() float64 {
	bufKB := float64(s.cfg.BufferSize) / 1024
	if bufKB <= 0 {
		bufKB = 0.5
	}
	// 1 + ref/buf: 2048B buffer → 5x reference syscall cost becomes
	// 1+4 = 5? Keep it gentle: extra cost halves for each doubling.
	return 1 + s.cost.BufferRefKB/(s.cost.BufferRefKB+bufKB)
}

// generationDemand returns the CPU seconds to generate a response of the
// given size with the current configuration and concurrency.
func (s *Server) generationDemand(respBytes int64) float64 {
	kb := float64(respBytes) / 1024
	d := s.cost.ParseCost + s.cost.PerKBCost*kb*s.bufferEfficiency()
	// Context-switch overhead grows with the number of active threads.
	active := float64(s.http.InUse() + s.ajp.InUse())
	d += s.cost.ThreadOver * active
	return d
}

// call stages. The stage names the event whose completion the call is
// waiting on; callFree is the recycled sentinel — any dispatch on it means
// a stale callback fired on a recycled record, and panics.
const (
	callFree int8 = iota
	callHTTPGrant
	callParsed
	callComputed
	callAJPGrant
	callGenerated
	callSent
)

// call is one in-flight request's state at the application tier: the
// pooled replacement for the closure chain Serve used to build per
// request. Its three callbacks (step, reject, release) are method values
// allocated once when the record is first created and reused across
// recycles, so a steady-state request costs zero closure allocations here.
//
// Records are released back to the server's free list before the request's
// done callback runs (the engine's release-before-callback discipline), so
// a synchronous grant chain triggered by done can immediately reuse them.
type call struct {
	srv       *Server
	respBytes int64
	extraCPU  float64
	backend   func(release func(ok bool))
	done      func(ok bool)
	stage     int8

	stepFn    func()        // bound step, scheduled for every stage advance
	rejectFn  func()        // bound reject, passed to both pool Acquires
	releaseFn func(ok bool) // bound release, handed to the backend
}

// getCall returns a recycled call record, or a fresh one with its
// callbacks bound.
func (s *Server) getCall(respBytes int64, extraCPU float64, backend func(release func(ok bool)), done func(ok bool)) *call {
	var c *call
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		c = &call{srv: s}
		c.stepFn = c.step
		c.rejectFn = c.reject
		c.releaseFn = c.release
	}
	c.respBytes = respBytes
	c.extraCPU = extraCPU
	c.backend = backend
	c.done = done
	return c
}

// putCall recycles a call record, dropping its callback references and
// arming the stale-dispatch sentinel.
func (s *Server) putCall(c *call) {
	c.backend = nil
	c.done = nil
	c.stage = callFree
	s.free = append(s.free, c)
}

// step advances the call through the same event sequence the closure chain
// produced: HTTP grant → parse CPU → (generation CPU | AJP grant → backend
// → generation CPU) → NIC transmit → completion.
func (c *call) step() {
	s := c.srv
	switch c.stage {
	case callHTTPGrant:
		// Parse + static part of the work on the HTTP connector thread.
		c.stage = callParsed
		s.node.CPU().Submit(s.cost.ParseCost, c.stepFn)
	case callParsed:
		if c.backend == nil {
			// Pure servlet computation, no database.
			c.stage = callComputed
			s.node.CPU().Submit(s.generationDemand(c.respBytes)+c.extraCPU, c.stepFn)
			return
		}
		// Dynamic request: hand off to an AJP worker.
		c.stage = callAJPGrant
		s.ajp.Acquire(c.stepFn, c.rejectFn)
	case callAJPGrant:
		// On the AJP worker: run the database leg. The backend may invoke
		// release synchronously, recycling c — this must be the last use.
		c.backend(c.releaseFn)
	case callComputed:
		c.stage = callSent
		s.node.NIC().Submit(s.node.NetDemand(c.respBytes), c.stepFn)
	case callGenerated:
		s.ajp.Release()
		c.stage = callSent
		s.node.NIC().Submit(s.node.NetDemand(c.respBytes), c.stepFn)
	case callSent:
		done := c.done
		s.putCall(c)
		s.http.Release()
		done(true)
	default:
		panic("appserver: call stepped after release")
	}
}

// reject handles an accept-queue overflow at whichever connector the call
// is waiting on.
func (c *call) reject() {
	s := c.srv
	done := c.done
	switch c.stage {
	case callHTTPGrant:
		s.putCall(c)
		done(false)
	case callAJPGrant:
		s.putCall(c)
		s.http.Release()
		done(false)
	default:
		panic("appserver: call rejected after release")
	}
}

// release is the completion the backend invokes when the database leg
// settles; ok=false means the query was shed.
func (c *call) release(ok bool) {
	s := c.srv
	if c.stage != callAJPGrant {
		panic("appserver: backend release after call settled")
	}
	if !ok {
		done := c.done
		s.putCall(c)
		s.ajp.Release()
		s.http.Release()
		done(false)
		return
	}
	// Back from the database: generate the page.
	c.stage = callGenerated
	s.node.CPU().Submit(s.generationDemand(c.respBytes)+c.extraCPU, c.stepFn)
}

// Serve processes one request at the application tier.
//
// respBytes is the size of the generated response and extraCPU is
// additional servlet CPU beyond the size-based model (transactional pages
// spend extra cycles on session state and order validation). If backend is non-nil
// the request needs the database: the servlet runs on an AJP worker and
// blocks (holding both threads) until the backend signals completion by
// invoking the function it is given with ok=true (or ok=false if the
// database shed the query). done reports whether the request succeeded;
// false means it was shed at an accept queue or by the backend.
func (s *Server) Serve(respBytes int64, extraCPU float64, backend func(release func(ok bool)), done func(ok bool)) {
	c := s.getCall(respBytes, extraCPU, backend, done)
	c.stage = callHTTPGrant
	s.http.Acquire(c.stepFn, c.rejectFn)
}

// QueueDepths returns the HTTP and AJP wait-queue lengths, for diagnostics.
func (s *Server) QueueDepths() (httpQ, ajpQ int) {
	return s.http.Waiting(), s.ajp.Waiting()
}

// ThreadsInUse returns the HTTP and AJP processor threads currently
// serving requests, for diagnostics and the telemetry sampler.
func (s *Server) ThreadsInUse() (httpBusy, ajpBusy int) {
	return s.http.InUse(), s.ajp.InUse()
}
