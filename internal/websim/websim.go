// Package websim wires the substrate models — cluster nodes, the proxy
// cache tier, the application-server tier, the database tier and the TPC-W
// object catalog — into one simulated cluster-based e-commerce site. It
// implements tpcw.Site: emulated browsers issue page requests, pages flow
// through the tier pipeline exactly as described in §II.A of the paper
// (tier 1 serves cacheable content, tiers 1+2 serve generated pages,
// tiers 1+2+3 serve transactional pages), and the measured output is WIPS.
//
// The simulator is the stand-in for the paper's 10-machine testbed: the
// Active Harmony layers above it only ever see (configuration → measured
// performance), so any system with the same qualitative response surfaces
// reproduces the tuning behaviour.
package websim

import (
	"fmt"

	"webharmony/internal/appserver"
	"webharmony/internal/cluster"
	"webharmony/internal/db"
	"webharmony/internal/param"
	"webharmony/internal/proxy"
	"webharmony/internal/recycle"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/tpcw"
	"webharmony/internal/webobj"
)

// Options configures a simulated site.
type Options struct {
	ProxyNodes int // nodes initially in the proxy tier
	AppNodes   int // nodes initially in the application tier
	DBNodes    int // nodes initially in the database tier

	Scale          int    // TPC-W scale factor (items); paper: 10,000
	Seed           uint64 // master seed for all stochastic components
	ProxyDiskBytes int64  // proxy disk-store capacity per node

	// WorkLines > 0 partitions the cluster into that many independent
	// work lines (§III.B parameter partitioning): a request is served
	// entirely by the nodes of one line.
	WorkLines int

	Hardware cluster.Hardware // zero value uses the paper's machines
}

func (o Options) withDefaults() Options {
	if o.ProxyNodes == 0 {
		o.ProxyNodes = 1
	}
	if o.AppNodes == 0 {
		o.AppNodes = 1
	}
	if o.DBNodes == 0 {
		o.DBNodes = 1
	}
	if o.Scale == 0 {
		o.Scale = 10000
	}
	if o.ProxyDiskBytes == 0 {
		o.ProxyDiskBytes = 4 << 30
	}
	if o.Hardware == (cluster.Hardware{}) {
		o.Hardware = cluster.DefaultHardware()
	}
	return o
}

// NodeIDs returns the node IDs New gives each tier of a system built from
// o, indexed by cluster.Tier, without building it.
func (o Options) NodeIDs() [][]int {
	o = o.withDefaults()
	return cluster.NodeIDs(o.ProxyNodes, o.AppNodes, o.DBNodes)
}

// interTierLatency is the one-way LAN latency between tiers, seconds.
const interTierLatency = 0.0003

// osPageCacheHit is the probability that a proxy disk-store read is served
// by the operating system's page cache instead of the physical disk.
const osPageCacheHit = 0.55

// diskHitExtraCPU is the additional CPU a proxy disk-store hit costs over
// a memory hit (store open, page-cache copy), seconds.
const diskHitExtraCPU = 0.0012

// txnPageExtraCPU is the additional application-tier CPU a transactional
// (database-writing) page costs: session management, cart and order
// validation, receipt rendering. It makes the ordering workload
// application-bound, as in the paper's Figure 7(a).
const txnPageExtraCPU = 0.0065

// osBaseMemory is the per-node memory consumed by the OS and daemons.
const osBaseMemory int64 = 128 << 20

// proxyServer is one node of the presentation tier.
type proxyServer struct {
	node  *cluster.Node
	cache *proxy.Cache
}

// System is the simulated cluster-based web service.
type System struct {
	Eng     *simnet.Engine
	Cluster *cluster.Cluster
	Catalog *webobj.Catalog

	opts Options
	src  *rng.Source

	proxies map[int]*proxyServer
	apps    map[int]*appserver.Server
	dbs     map[int]*db.Server

	// Per-node current configurations, by tier space.
	nodeCfg map[int]param.Config

	rr struct{ proxy, app, db uint64 }

	// failed marks nodes that are down: they receive no traffic until
	// recovered.
	failed map[int]bool

	// Per-work-line completion counters (successful interactions).
	lineDone []uint64

	// Free lists recycling the pooled request state machines (pageReq,
	// objReq) so the steady-state page path allocates no per-request
	// closures; live counters track records currently in flight so tests
	// can assert the pools neither leak nor double-free. See DESIGN.md §7.
	freePages []*pageReq
	freeObjs  []*objReq
	livePages int
	liveObjs  int

	// spanSink, when set, receives every completed page's span tree for
	// latency attribution (span.go). Nil keeps span recording fully inert.
	spanSink *SpanSink
}

// freePagePool and freeObjPool hold released systems' free request
// records. A system takes them at its first page or object and rebinds
// them (DESIGN.md §10), so one that never serves takes none.
var (
	freePagePool recycle.Pool[[]*pageReq]
	freeObjPool  recycle.Pool[[]*objReq]
)

// New builds the simulated site.
func New(opts Options) *System {
	opts = opts.withDefaults()
	eng := &simnet.Engine{}
	s := &System{
		Eng:     eng,
		Catalog: webobj.NewCatalog(opts.Scale, opts.Seed^0xCA7A106),
		opts:    opts,
		src:     rng.New(opts.Seed ^ 0x51731a7e),
		proxies: make(map[int]*proxyServer),
		apps:    make(map[int]*appserver.Server),
		dbs:     make(map[int]*db.Server),
		nodeCfg: make(map[int]param.Config),
		failed:  make(map[int]bool),
	}
	s.Cluster = cluster.New(eng, opts.Hardware, opts.ProxyNodes, opts.AppNodes, opts.DBNodes)
	if opts.WorkLines > 0 {
		for _, t := range cluster.Tiers() {
			if s.Cluster.TierSize(t) < opts.WorkLines {
				panic(fmt.Sprintf("websim: %d work lines need >= %d nodes in tier %v", opts.WorkLines, opts.WorkLines, t))
			}
		}
		s.lineDone = make([]uint64, opts.WorkLines)
	}
	for _, n := range s.Cluster.Nodes() {
		s.nodeCfg[n.ID()] = defaultConfigFor(n.Tier())
		s.startServer(n)
	}
	return s
}

// defaultConfigFor returns the tier's default parameter configuration.
func defaultConfigFor(t cluster.Tier) param.Config {
	return SpaceFor(t).DefaultConfig()
}

// SpaceFor returns the tunable-parameter space of a tier.
func SpaceFor(t cluster.Tier) *param.Space {
	switch t {
	case cluster.TierProxy:
		return proxy.Space()
	case cluster.TierApp:
		return appserver.Space()
	case cluster.TierDB:
		return db.Space()
	default:
		panic("websim: unknown tier")
	}
}

// startServer instantiates the tier server process on a node from its
// stored configuration and charges its memory footprint.
func (s *System) startServer(n *cluster.Node) {
	id := n.ID()
	cfg := s.nodeCfg[id]
	switch n.Tier() {
	case cluster.TierProxy:
		pc := proxy.DecodeConfig(cfg)
		// Each restart starts with an empty store. Real Squid persists its
		// disk store across restarts; the simulator deliberately clears it
		// so every iteration's measurement is attributable to its own
		// configuration (with an inherited store, a configuration that
		// admits nothing still measures well). The warm-up window fills
		// the cache before measurement begins.
		s.proxies[id] = &proxyServer{node: n, cache: proxy.New(pc, s.opts.ProxyDiskBytes)}
		n.SetMemUsed(osBaseMemory + pc.MemoryFootprint())
	case cluster.TierApp:
		ac := appserver.DecodeConfig(cfg)
		s.apps[id] = appserver.New(s.Eng, n, ac, appserver.DefaultCostModel())
		n.SetMemUsed(osBaseMemory + ac.MemoryFootprint())
	case cluster.TierDB:
		dc := db.DecodeConfig(cfg)
		s.dbs[id] = db.New(s.Eng, n, dc, db.DefaultCostModel(), s.src.Split(uint64(1000+id)))
		n.SetMemUsed(osBaseMemory + dc.MemoryFootprint())
	}
}

// stopServer removes the tier server process from a node. A proxy store
// goes back to the pool when no page or object is in flight, so nothing
// can reach it any more: that is the case at every hermetic evaluation's
// restart. On a live system with requests in flight (a node move or
// failure) the store stays with the requests and is collected with them.
func (s *System) stopServer(n *cluster.Node) {
	if p, ok := s.proxies[n.ID()]; ok && s.livePages == 0 && s.liveObjs == 0 {
		p.cache.Release()
	}
	delete(s.proxies, n.ID())
	delete(s.apps, n.ID())
	delete(s.dbs, n.ID())
	n.SetMemUsed(osBaseMemory)
}

// Release returns the system's recycled storage, the proxy stores, the
// catalog's size table and the free request records, to their pools once
// it will simulate no more. Records still in flight stay with the engine's
// pending events and are collected with them. The system must not be used
// afterwards.
func (s *System) Release() {
	for _, p := range s.proxies {
		p.cache.Release()
	}
	s.proxies = nil
	s.Catalog.Release()
	if s.freePages != nil {
		freePagePool.Put(s.freePages)
	}
	if s.freeObjs != nil {
		freeObjPool.Put(s.freeObjs)
	}
	s.freePages, s.freeObjs = nil, nil
}

// SetNodeConfig stores a node's configuration; it takes effect at the next
// Restart (the paper restarts servers between tuning iterations).
func (s *System) SetNodeConfig(nodeID int, cfg param.Config) {
	n := s.Cluster.Node(nodeID)
	if n == nil {
		panic(fmt.Sprintf("websim: no node %d", nodeID))
	}
	sp := SpaceFor(n.Tier())
	if !sp.Feasible(cfg) {
		panic(fmt.Sprintf("websim: infeasible config for node %d (%v tier)", nodeID, n.Tier()))
	}
	s.nodeCfg[nodeID] = cfg.Clone()
}

// NodeConfig returns the node's stored configuration.
func (s *System) NodeConfig(nodeID int) param.Config { return s.nodeCfg[nodeID].Clone() }

// SetTierConfig stores the same configuration on every node of a tier
// (§III.B parameter duplication).
func (s *System) SetTierConfig(t cluster.Tier, cfg param.Config) {
	for _, n := range s.Cluster.TierNodes(t) {
		s.SetNodeConfig(n.ID(), cfg)
	}
}

// Restart re-instantiates every server from its stored configuration,
// clearing caches and statistics — one tuning-iteration boundary. Failed
// nodes stay down.
func (s *System) Restart() {
	for _, n := range s.Cluster.Nodes() {
		s.stopServer(n)
		if !s.failed[n.ID()] {
			s.startServer(n)
		}
	}
}

// MoveNode reassigns a node to another tier and starts the tier's server
// on it with the tier default configuration (or cfg, if non-nil). This is
// the §IV reconfiguration action; remaining nodes keep serving throughout.
func (s *System) MoveNode(nodeID int, to cluster.Tier, cfg param.Config) {
	n := s.Cluster.Node(nodeID)
	if n == nil {
		panic(fmt.Sprintf("websim: no node %d", nodeID))
	}
	if n.Tier() == to {
		return
	}
	if s.Cluster.TierSize(n.Tier()) <= 1 {
		panic(fmt.Sprintf("websim: cannot empty tier %v", n.Tier()))
	}
	s.stopServer(n)
	n.SetTier(to)
	if cfg == nil {
		cfg = defaultConfigFor(to)
	}
	s.nodeCfg[nodeID] = cfg.Clone()
	s.startServer(n)
}

// FailNode takes a node down: its server process stops and the router
// stops sending it traffic. Requests in flight on the node still drain
// (the front-end retries are not modeled; pages routed to a tier with no
// live node fail). The node's stored configuration is kept for recovery.
func (s *System) FailNode(nodeID int) {
	n := s.Cluster.Node(nodeID)
	if n == nil {
		panic(fmt.Sprintf("websim: no node %d", nodeID))
	}
	if s.failed[nodeID] {
		return
	}
	s.failed[nodeID] = true
	s.stopServer(n)
}

// RecoverNode brings a failed node back with its stored configuration
// (empty caches, as after a crash).
func (s *System) RecoverNode(nodeID int) {
	n := s.Cluster.Node(nodeID)
	if n == nil {
		panic(fmt.Sprintf("websim: no node %d", nodeID))
	}
	if !s.failed[nodeID] {
		return
	}
	delete(s.failed, nodeID)
	s.startServer(n)
}

// lineFor returns the work line serving the given browser.
func (s *System) lineFor(eb int) int {
	if s.opts.WorkLines <= 0 {
		return -1
	}
	return eb % s.opts.WorkLines
}

// pick returns the serving node of a tier for the given browser, rotating
// round-robin; with work lines, selection is restricted to the line.
func (s *System) pick(t cluster.Tier, eb int, rr *uint64) *cluster.Node {
	nodes := s.Cluster.TierNodes(t)
	if len(s.failed) > 0 {
		live := nodes[:0:0]
		for _, n := range nodes {
			if !s.failed[n.ID()] {
				live = append(live, n)
			}
		}
		nodes = live
	}
	if len(nodes) == 0 {
		return nil
	}
	if line := s.lineFor(eb); line >= 0 {
		var lineNodes []*cluster.Node
		for i, n := range nodes {
			if i%s.opts.WorkLines == line {
				lineNodes = append(lineNodes, n)
			}
		}
		if len(lineNodes) > 0 {
			nodes = lineNodes
		}
	}
	*rr++
	return nodes[int(*rr)%len(nodes)]
}

// pickProxy returns a live proxy server for the browser, or nil.
func (s *System) pickProxy(eb int) *proxyServer {
	n := s.pick(cluster.TierProxy, eb, &s.rr.proxy)
	if n == nil {
		return nil
	}
	return s.proxies[n.ID()]
}

// pickApp returns a live application server for the browser, or nil.
func (s *System) pickApp(eb int) *appserver.Server {
	n := s.pick(cluster.TierApp, eb, &s.rr.app)
	if n == nil {
		return nil
	}
	return s.apps[n.ID()]
}

// pickDB returns a live database server for the browser, or nil.
func (s *System) pickDB(eb int) *db.Server {
	n := s.pick(cluster.TierDB, eb, &s.rr.db)
	if n == nil {
		return nil
	}
	return s.dbs[n.ID()]
}

// pageFrames precomputes the "page/<interaction>" attribution frame for
// every TPC-W interaction. Interaction names contain spaces ("New
// Products"); folded-stack frames cannot (space separates stack from
// weight), so the slug form is used.
var pageFrames = func() [tpcw.NumInteractions]string {
	var out [tpcw.NumInteractions]string
	for i := range out {
		out[i] = "page/" + tpcw.Interaction(i).Slug()
	}
	return out
}()

// pageFrame returns the attribution root frame for an interaction.
func pageFrame(i tpcw.Interaction) string {
	if i < 0 || int(i) >= tpcw.NumInteractions {
		return "page/unknown"
	}
	return pageFrames[i]
}

// pageReq stages. Each stage names the event whose completion the page is
// waiting on; pgFree is the recycled sentinel — a dispatch on it means a
// stale callback fired on a recycled record, and panics rather than
// corrupting another page's state.
const (
	pgFree        int8 = iota
	pgHTMLRelayed      // proxy relay CPU done → hop to the application tier
	pgHTMLAtApp        // inter-tier hop done → generate at the app tier
	pgDBQuery          // hop to the database tier done → issue the query
	pgDBRelease        // post-query external delay done → release the AJP worker
	pgHTMLSent         // proxy NIC transmit of the generated page done
	pgImages           // embedded-image fan-out in flight
)

// pageReq is one in-flight page request's state: the pooled replacement
// for the closure chain Request used to build per page (serveHTML →
// appGenerate → fan-in over serveObject → finishPage). Its callbacks are
// method values allocated once when the record is first created and reused
// across recycles, so a steady-state page costs zero closure allocations
// in this package.
//
// Records return to the system's free list before the page's done callback
// runs (the engine's release-before-callback discipline); a recycled
// record's stage is pgFree, so a stale callback that reaches it panics.
type pageReq struct {
	s    *System
	pr   tpcw.PageRequest
	done func(ok bool)

	remaining int  // embedded images still in flight
	allOK     bool // no component has failed yet

	prx   *proxyServer  // proxy relaying the dynamic page
	dbSrv *db.Server    // database serving the query leg
	rel   func(ok bool) // appserver release, held across the database leg
	relOK bool          // query outcome, carried to the pgDBRelease event
	stage int8

	// span is the page's latency span, recorded only when the system has a
	// span sink; its storage is recycled with the record. critKid tracks the
	// current critical-path candidate among captured children: during the
	// parallel image fan-out, captures arrive in completion order, so the
	// latest capture is the child whose chain ends the page.
	span    simnet.SpanBuf
	critKid int

	stepFn    func()                      // bound step, scheduled per stage advance
	htmlFn    func(ok bool)               // bound htmlDone, the page-document fan-in
	objFn     func(ok bool)               // bound objDone, the per-image fan-in
	servedFn  func(ok bool)               // bound served, the app tier's done
	queryFn   func(ok bool)               // bound queryDone, the database's done
	backendFn func(release func(ok bool)) // bound backend, handed to appserver.Serve
}

// getPage returns a recycled page record, or a fresh one with its
// callbacks bound.
func (s *System) getPage(pr tpcw.PageRequest, done func(ok bool)) *pageReq {
	var r *pageReq
	if s.freePages == nil {
		s.freePages, _ = freePagePool.Get()
		for _, r := range s.freePages {
			r.s = s
		}
	}
	if n := len(s.freePages); n > 0 {
		r = s.freePages[n-1]
		s.freePages[n-1] = nil
		s.freePages = s.freePages[:n-1]
	} else {
		r = &pageReq{s: s}
		r.stepFn = r.step
		r.htmlFn = r.htmlDone
		r.objFn = r.objDone
		r.servedFn = r.served
		r.queryFn = r.queryDone
		r.backendFn = r.backend
	}
	r.pr = pr
	r.done = done
	s.livePages++
	return r
}

// putPage recycles a page record: references are dropped and the stale-
// dispatch sentinel armed.
func (s *System) putPage(r *pageReq) {
	r.stage = pgFree
	r.pr = tpcw.PageRequest{}
	r.done = nil
	r.prx = nil
	r.dbSrv = nil
	r.rel = nil
	s.livePages--
	s.freePages = append(s.freePages, r)
}

// Request implements tpcw.Site: it serves the page HTML and then all
// embedded images through the tier pipeline. The page succeeds only if
// every component succeeds.
func (s *System) Request(pr tpcw.PageRequest, done func(ok bool)) {
	// Every event this page schedules — across all tiers and queues — is
	// attributed under its interaction class.
	f := s.Eng.EnterRoot(pageFrame(pr.Interaction))
	defer f.Exit()
	r := s.getPage(pr, done)
	if s.spanSink != nil {
		r.span.Begin(s.Eng.NowTicks())
		r.critKid = -1
		s.Eng.SetSpan(&r.span)
	}
	r.serveHTML()
}

// serveHTML serves the page document: static pages go through the cache
// path, dynamic pages are always forwarded to the application tier, with
// the database involved per the interaction profile.
func (r *pageReq) serveHTML() {
	s := r.s
	if r.pr.Profile.Static {
		s.serveObject(r.pr.HTML, r, r.htmlFn)
		return
	}
	p := s.pickProxy(r.pr.Browser)
	if p == nil {
		r.htmlDone(false)
		return
	}
	r.prx = p
	// The proxy relays the request and the generated response.
	f := s.Eng.Enter("tier/proxy")
	defer f.Exit()
	r.stage = pgHTMLRelayed
	s.proxyCPU(p, 0, r.pr.HTML.Size, r.stepFn)
}

// step advances the dynamic-page leg through the same event sequence the
// closure chain produced.
func (r *pageReq) step() {
	s := r.s
	switch r.stage {
	case pgHTMLRelayed:
		xf := s.Eng.Enter("xfer")
		defer xf.Exit()
		r.stage = pgHTMLAtApp
		s.Eng.Schedule(interTierLatency, r.stepFn)
	case pgHTMLAtApp:
		// The inter-tier hop just finished; attribute it before the
		// application tier starts marking.
		r.span.Mark(cluster.SpanSiteXfer, simnet.SpanService, s.Eng.NowTicks())
		// Generate the page on the application tier, with the database
		// involved per the interaction profile.
		a := s.pickApp(r.pr.Browser)
		if a == nil {
			r.served(false)
			return
		}
		var backend func(release func(ok bool))
		if r.pr.Profile.DB != tpcw.DBNone {
			backend = r.backendFn
		}
		extra := 0.0
		if r.pr.Profile.DB == tpcw.DBWrite {
			extra = txnPageExtraCPU
		}
		af := s.Eng.Enter("tier/app")
		defer af.Exit()
		a.Serve(r.pr.HTML.Size, extra, backend, r.servedFn)
	case pgDBQuery:
		r.span.Mark(cluster.SpanSiteXfer, simnet.SpanService, s.Eng.NowTicks())
		kind := db.QueryRead
		switch r.pr.Profile.DB {
		case tpcw.DBJoin:
			kind = db.QueryJoin
		case tpcw.DBWrite:
			kind = db.QueryWrite
		}
		df := s.Eng.Enter("tier/db")
		defer df.Exit()
		r.dbSrv.Query(kind, r.pr.Profile.DBResultKB<<10, r.queryFn)
	case pgDBRelease:
		// The return hop and any external-service delay (payment gateway)
		// ran together in one timer; split them at the delay boundary so
		// ext time is not misread as network time. Both marks telescope, so
		// the decomposition stays exact regardless of where the cut rounds.
		r.span.Mark(cluster.SpanSiteXfer, simnet.SpanService,
			simnet.Ticks(s.Eng.Now()-r.pr.Profile.ExtDelaySec))
		r.span.Mark(cluster.SpanSiteExt, simnet.SpanService, s.Eng.NowTicks())
		rel := r.rel
		r.rel = nil
		rel(r.relOK)
	case pgHTMLSent:
		r.htmlDone(true)
	default:
		panic("websim: page request stepped after release")
	}
}

// backend is the database leg the application server runs on its AJP
// worker (appserver.Serve's backend argument).
func (r *pageReq) backend(release func(ok bool)) {
	s := r.s
	d := s.pickDB(r.pr.Browser)
	if d == nil {
		release(false)
		return
	}
	r.dbSrv = d
	r.rel = release
	xf := s.Eng.Enter("xfer")
	defer xf.Exit()
	r.stage = pgDBQuery
	s.Eng.Schedule(interTierLatency, r.stepFn)
}

// queryDone receives the database outcome. External services (the TPC-W
// payment gateway on Buy Confirm) run after the transaction, while the
// application server still holds its worker threads.
func (r *pageReq) queryDone(ok bool) {
	if r.stage != pgDBQuery {
		panic("websim: query completion on a settled page request")
	}
	r.relOK = ok
	r.stage = pgDBRelease
	r.s.Eng.Schedule(interTierLatency+r.pr.Profile.ExtDelaySec, r.stepFn)
}

// served receives the application tier's outcome for the generated page;
// on success the proxy relays the response to the browser.
func (r *pageReq) served(ok bool) {
	if !ok {
		r.htmlDone(false)
		return
	}
	r.stage = pgHTMLSent
	r.prx.node.NIC().Submit(r.prx.node.NetDemand(r.pr.HTML.Size), r.stepFn)
}

// htmlDone is the page-document fan-in: once the HTML has settled, fan out
// over the embedded images (even after an HTML failure, as a browser
// would) or finish an imageless page.
func (r *pageReq) htmlDone(ok bool) {
	s := r.s
	if len(r.pr.Images) == 0 {
		r.finish(ok)
		return
	}
	r.remaining = len(r.pr.Images)
	r.allOK = ok
	r.stage = pgImages
	for _, img := range r.pr.Images {
		s.serveObject(img, r, r.objFn)
	}
}

// objDone is the per-image fan-in.
func (r *pageReq) objDone(ok bool) {
	if r.stage != pgImages {
		panic("websim: image completion on a settled page request")
	}
	if !ok {
		r.allOK = false
	}
	r.remaining--
	if r.remaining == 0 {
		r.finish(r.allOK)
	}
}

// finish accounts the page outcome and reports it. The record is recycled
// before done runs, so a completion chain that synchronously issues new
// work can reuse it immediately.
func (r *pageReq) finish(ok bool) {
	s := r.s
	if s.spanSink != nil && r.span.Active() {
		// Fold the span before the record is recycled; the sink also
		// detaches the engine's span context so work scheduled by done
		// (think timers) belongs to no request.
		s.spanSink.page(s.Eng, r, ok)
	}
	done := r.done
	eb := r.pr.Browser
	s.putPage(r)
	if ok {
		if line := s.lineFor(eb); line >= 0 {
			s.lineDone[line]++
		}
	}
	done(ok)
}

// objReq stages, named like the pageReq stages.
const (
	objFree      int8 = iota
	objMemCPU         // memory-hit lookup CPU done → transmit
	objDiskCPU        // disk-hit lookup CPU done → store open/copy CPU
	objDiskCheck      // store CPU done → OS page-cache draw
	objDiskRead       // physical disk read done → transmit
	objMissCPU        // miss lookup CPU done → hop to the application tier
	objMissAtApp      // inter-tier hop done → fetch from the origin
	objSent           // proxy NIC transmit done → complete
)

// objReq is one in-flight cacheable-object request's state (a static page
// or embedded image served by the proxy tier): the pooled replacement for
// serveObject's closure chains, with the same lifecycle as pageReq.
type objReq struct {
	s     *System
	o     webobj.Object
	eb    int
	p     *proxyServer
	done  func(ok bool)
	stage int8

	// span is the object's latency span; pg is the page whose span tree it
	// folds into on completion, non-nil only while recording. label carries
	// the cache outcome (objCache*) into the folded child span.
	span  simnet.SpanBuf
	pg    *pageReq
	label uint8

	stepFn   func()        // bound step, scheduled per stage advance
	servedFn func(ok bool) // bound served, the origin fetch's done
}

// Cache-outcome labels carried on folded object spans.
const (
	objCacheNone uint8 = iota // page documents, unrecorded objects
	objCacheMem               // proxy memory hit
	objCacheDisk              // proxy disk-store hit
	objCacheMiss              // fetched from the origin
)

// objCacheNames indexes label → exported name, in label order.
var objCacheNames = [...]string{"", "hit-mem", "hit-disk", "miss"}

// ObjCacheName returns the exported name of a folded child span's cache
// label ("" for page documents).
func ObjCacheName(label uint8) string {
	if int(label) >= len(objCacheNames) {
		return "unknown"
	}
	return objCacheNames[label]
}

// getObj returns a recycled object record, or a fresh one with its
// callbacks bound.
func (s *System) getObj(o webobj.Object, eb int, p *proxyServer, done func(ok bool)) *objReq {
	var r *objReq
	if s.freeObjs == nil {
		s.freeObjs, _ = freeObjPool.Get()
		for _, r := range s.freeObjs {
			r.s = s
		}
	}
	if n := len(s.freeObjs); n > 0 {
		r = s.freeObjs[n-1]
		s.freeObjs[n-1] = nil
		s.freeObjs = s.freeObjs[:n-1]
	} else {
		r = &objReq{s: s}
		r.stepFn = r.step
		r.servedFn = r.served
	}
	r.o = o
	r.eb = eb
	r.p = p
	r.done = done
	s.liveObjs++
	return r
}

// putObj recycles an object record.
func (s *System) putObj(r *objReq) {
	r.stage = objFree
	r.o = webobj.Object{}
	r.p = nil
	r.done = nil
	r.pg = nil
	r.label = objCacheNone
	s.liveObjs--
	s.freeObjs = append(s.freeObjs, r)
}

// serveObject serves one cacheable object (the static page document or an
// embedded image) of page pg from the proxy tier, fetching from the
// application tier on a miss.
func (s *System) serveObject(o webobj.Object, pg *pageReq, done func(ok bool)) {
	eb := pg.pr.Browser
	p := s.pickProxy(eb)
	if p == nil {
		done(false)
		return
	}
	r := s.getObj(o, eb, p, done)
	f := s.Eng.Enter("tier/proxy")
	defer f.Exit()
	var prevSpan *simnet.SpanBuf
	if pg.span.Active() {
		// The object records its own span (it may overlap siblings in the
		// image fan-out) and folds it into the page's tree on completion.
		r.pg = pg
		r.span.Begin(s.Eng.NowTicks())
		prevSpan = s.Eng.SetSpan(&r.span)
	}
	res, scan := p.cache.Lookup(o)
	switch res {
	case proxy.HitMem:
		r.stage = objMemCPU
		r.label = objCacheMem
	case proxy.HitDisk:
		r.stage = objDiskCPU
		r.label = objCacheDisk
	default: // Miss: fetch from the origin (application tier), then admit.
		r.stage = objMissCPU
		r.label = objCacheMiss
	}
	s.proxyCPU(p, scan, o.Size, r.stepFn)
	if r.pg != nil {
		s.Eng.SetSpan(prevSpan)
	}
}

// step advances the object through the same event sequence the closure
// chains produced for the hit, disk-hit and miss paths.
func (r *objReq) step() {
	s := r.s
	switch r.stage {
	case objMemCPU:
		r.stage = objSent
		r.p.node.NIC().Submit(r.p.node.NetDemand(r.o.Size), r.stepFn)
	case objDiskCPU:
		// Disk hits pay extra CPU (open/copy from the store) on top of the
		// lookup cost; most are then absorbed by the OS page cache, and
		// only the rest touch the physical disk.
		r.stage = objDiskCheck
		r.p.node.CPU().Submit(diskHitExtraCPU, r.stepFn)
	case objDiskCheck:
		if s.src.Bernoulli(osPageCacheHit) {
			r.stage = objSent
			r.p.node.NIC().Submit(r.p.node.NetDemand(r.o.Size), r.stepFn)
			return
		}
		r.stage = objDiskRead
		r.p.node.Disk().Submit(r.p.node.DiskDemand(r.o.Size), r.stepFn)
	case objDiskRead:
		r.stage = objSent
		r.p.node.NIC().Submit(r.p.node.NetDemand(r.o.Size), r.stepFn)
	case objMissCPU:
		xf := s.Eng.Enter("xfer")
		defer xf.Exit()
		r.stage = objMissAtApp
		s.Eng.Schedule(interTierLatency, r.stepFn)
	case objMissAtApp:
		r.span.Mark(cluster.SpanSiteXfer, simnet.SpanService, s.Eng.NowTicks())
		a := s.pickApp(r.eb)
		if a == nil {
			r.complete(false)
			return
		}
		af := s.Eng.Enter("tier/app")
		defer af.Exit()
		a.Serve(r.o.Size, 0, nil, r.servedFn)
	case objSent:
		r.complete(true)
	default:
		panic("websim: object request stepped after release")
	}
}

// served receives the origin fetch's outcome; on success the object is
// admitted to the cache and transmitted.
func (r *objReq) served(ok bool) {
	if !ok {
		r.complete(false)
		return
	}
	r.p.cache.Admit(r.o)
	r.stage = objSent
	r.p.node.NIC().Submit(r.p.node.NetDemand(r.o.Size), r.stepFn)
}

// complete reports the object outcome, folding the span into its page and
// recycling the record first.
func (r *objReq) complete(ok bool) {
	s := r.s
	done := r.done
	if r.pg != nil {
		r.pg.captureChild(&r.span, ok, r.label)
	}
	s.putObj(r)
	done(ok)
}

// captureChild folds a completed object's span into the page's tree and
// maintains the critical-path marking: during the parallel image fan-out
// the latest capture (completion order is time order) supersedes the
// previous candidate; a sequential child (the static page document) is
// always critical.
func (r *pageReq) captureChild(c *simnet.SpanBuf, ok bool, label uint8) {
	if !r.span.Active() {
		return
	}
	i := r.span.AddChild(c, r.s.Eng.NowTicks(), ok, label)
	if r.stage == pgImages {
		if r.critKid >= 0 {
			r.span.SetCritical(r.critKid, false)
		}
		r.critKid = i
	}
	r.span.SetCritical(i, true)
}

// proxyCPU charges the proxy's per-request CPU: protocol handling, the
// directory scan, and per-KB copy costs.
func (s *System) proxyCPU(p *proxyServer, scan int, bytes int64, then func()) {
	const (
		baseCost    = 0.0009 // accept/parse/log
		perScanCost = 0.000002
		perKBCost   = 0.000018
	)
	d := baseCost + float64(scan)*perScanCost + float64(bytes)/1024*perKBCost
	p.node.CPU().Submit(d, then)
}

// LineCompleted returns the completed-page count of a work line.
func (s *System) LineCompleted(line int) uint64 {
	if line < 0 || line >= len(s.lineDone) {
		return 0
	}
	return s.lineDone[line]
}

// WorkLines returns the configured number of work lines (0 = none).
func (s *System) WorkLines() int { return s.opts.WorkLines }

// ResetCounters zeroes the per-work-line completion counters.
func (s *System) ResetCounters() {
	for i := range s.lineDone {
		s.lineDone[i] = 0
	}
}

// ProxyStats returns the cache statistics of the proxy on the given node.
func (s *System) ProxyStats(nodeID int) (proxy.Stats, bool) {
	p, ok := s.proxies[nodeID]
	if !ok {
		return proxy.Stats{}, false
	}
	return p.cache.Stats(), true
}

// AppServer returns the application server on the given node, if any.
func (s *System) AppServer(nodeID int) (*appserver.Server, bool) {
	a, ok := s.apps[nodeID]
	return a, ok
}

// DBServer returns the database server on the given node, if any.
func (s *System) DBServer(nodeID int) (*db.Server, bool) {
	d, ok := s.dbs[nodeID]
	return d, ok
}

// Compile-time check: System drives tpcw browsers.
var _ tpcw.Site = (*System)(nil)
