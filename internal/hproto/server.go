package hproto

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"webharmony/internal/harmony"
	"webharmony/internal/param"
	"webharmony/internal/stats"
)

// Server is a network-facing Active Harmony tuning server. Sessions are
// shared across connections (several servers of a cluster may report into
// one session, or each may own its own), matching the deployment in §III.B
// where one tuning server drives many nodes.
type Server struct {
	ln net.Listener

	mu       sync.Mutex
	sessions map[string]*sessionState
	conns    map[net.Conn]struct{} // live accepted connections
	closed   bool
	draining bool // a DrainClose is in progress
	wg       sync.WaitGroup

	stats serverStats // runtime counters, exposed via DebugHandler

	// Per-operation wall-clock dispatch latency, the real-path twin of
	// the simulator's span histograms: same log-bucketed stats.LatencyHist,
	// observed in microseconds, exposed via /debug/latency.
	latMu sync.Mutex
	lat   map[Op]*stats.LatencyHist
}

type sessionState struct {
	mu      sync.Mutex
	names   valueNames // the values map's key table for the session's space
	session *harmony.Session
	pending bool // a config has been handed out and awaits a report
}

// NewServer starts a tuning server listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:       ln,
		sessions: make(map[string]*sessionState),
		conns:    make(map[net.Conn]struct{}),
		lat:      make(map[Op]*stats.LatencyHist),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every live connection and waits for
// the connection handlers to finish. Without closing the connections a
// handler idle in a read would block Close forever (clients hold their
// connection open between requests). Close is idempotent; concurrent and
// repeated calls wait for the same shutdown and return nil.
func (s *Server) Close() error {
	return s.shutdown(func(c net.Conn) { _ = c.Close() })
}

// DrainClose stops the listener, then gives live connections up to d to
// finish before they are cut: instead of closing each connection it arms
// an absolute read/write deadline d from now, so a handler that has just
// read a request can still compute and write its response, and clients
// that close their side release their handler immediately via EOF. The
// server cannot tell an idle keep-alive connection from one whose request
// is about to arrive, so a client that simply stays connected holds its
// handler until the deadline expires — d bounds the drain, it is not a
// minimum. Like Close, DrainClose is idempotent; if a shutdown is already
// running it waits for that shutdown instead of starting another.
func (s *Server) DrainClose(d time.Duration) error {
	deadline := time.Now().Add(d)
	s.setDraining(true)
	defer s.setDraining(false)
	return s.shutdown(func(c net.Conn) { _ = c.SetDeadline(deadline) })
}

// shutdown runs the shared close sequence: mark the server closed, stop
// the listener, apply cut to every live connection (close it outright or
// arm a drain deadline) and wait for all handlers to return.
func (s *Server) shutdown(cut func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range conns {
		cut(c) // unblocks handlers parked in a read, now or at the deadline
	}
	s.wg.Wait()
	return err
}

// track records an accepted connection so Close can unblock its handler.
// It reports false when the server is already closed (the connection was
// accepted in the window before the listener shut); the handler must then
// drop the connection immediately instead of serving it.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.stats.conns.Add(1)
	s.stats.connsOpen.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.stats.connsOpen.Add(-1)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	r := bufio.NewReader(conn)
	var (
		strs interner
		out  []byte // the response line, reused
	)
	for {
		line, err := readLine(r, MaxMessageSize)
		if err != nil {
			return // EOF, a connection failure or an oversized frame: nothing to report to
		}
		s.stats.frames.Add(1)
		var (
			resp  Response
			names valueNames
		)
		if req, err := decodeRequest(line, &strs); err != nil {
			resp = Errorf("bad request: %v", err)
		} else {
			t0 := time.Now()
			resp, names = s.dispatch(req)
			s.observeLatency(req.Op, time.Since(t0).Microseconds())
		}
		if out, err = appendResponse(out[:0], &resp, names); err != nil {
			resp = Errorf("encode: %v", err)
			out, _ = AppendResponse(out[:0], &resp)
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// readLine reads one newline-terminated message, failing once the line
// grows past max bytes so a misbehaving peer cannot make the reader
// buffer an unbounded frame. (bufio.Reader.ReadBytes has no such bound.)
// A line that fits in r's buffer is returned in place, valid until the
// next read; the decoders copy whatever they keep.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	line = append([]byte(nil), line...)
	for {
		if len(line) > max {
			return nil, fmt.Errorf("hproto: message exceeds limit %d", max)
		}
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// observeLatency folds one dispatch duration into the op's histogram.
func (s *Server) observeLatency(op Op, us int64) {
	s.latMu.Lock()
	h := s.lat[op]
	if h == nil {
		h = new(stats.LatencyHist)
		s.lat[op] = h
	}
	h.Observe(us)
	s.latMu.Unlock()
}

// latencySnapshot copies the per-op histograms for lock-free reporting.
func (s *Server) latencySnapshot() map[Op]stats.LatencyHist {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	out := make(map[Op]stats.LatencyHist, len(s.lat))
	for op, h := range s.lat {
		out[op] = *h
	}
	return out
}

func (s *Server) get(name string) (*sessionState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sessions[name]
	return st, ok
}

// dispatch serves one request. For next and best it also returns the
// session's values-map key table: the response's values map is encoded
// from its configuration through names instead of being built.
func (s *Server) dispatch(req Request) (Response, valueNames) {
	switch req.Op {
	case OpRegister:
		return s.register(req), nil
	case OpList:
		s.mu.Lock()
		names := make([]string, 0, len(s.sessions))
		for n := range s.sessions {
			names = append(names, n)
		}
		s.mu.Unlock()
		sort.Strings(names)
		return Response{OK: true, Sessions: names}, nil
	case OpClose:
		s.mu.Lock()
		_, ok := s.sessions[req.Session]
		delete(s.sessions, req.Session)
		s.mu.Unlock()
		if !ok {
			return Errorf("no session %q", req.Session), nil
		}
		return Response{OK: true}, nil
	case OpRestore:
		return s.restore(req), nil
	}

	st, ok := s.get(req.Session)
	if !ok {
		return Errorf("no session %q", req.Session), nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch req.Op {
	case OpNext:
		cfg := st.session.NextConfig()
		st.pending = true
		s.stats.asks.Add(1)
		return Response{OK: true, Config: cfg}, st.names
	case OpReport:
		if !st.pending {
			return Errorf("report without a pending configuration"), nil
		}
		st.session.Report(req.Perf)
		st.pending = false
		s.stats.tells.Add(1)
		return Response{OK: true, Iterations: st.session.Iterations()}, nil
	case OpBest:
		cfg, perf, have := st.session.Best()
		return Response{
			OK: true, Config: cfg,
			Perf: perf, HavePerf: have,
			Iterations: st.session.Iterations(),
		}, st.names
	case OpRestart:
		st.session.Restart()
		st.pending = false
		return Response{OK: true}, nil
	case OpSave:
		snap, err := st.session.Save()
		if err != nil {
			return Errorf("save: %v", err), nil
		}
		data, err := snap.Marshal()
		if err != nil {
			return Errorf("save: %v", err), nil
		}
		return Response{OK: true, Snapshot: data}, nil
	default:
		return Errorf("unknown op %q", req.Op), nil
	}
}

func (s *Server) register(req Request) Response {
	if req.Session == "" {
		return Errorf("register: empty session name")
	}
	if len(req.Params) == 0 {
		return Errorf("register: no parameters")
	}
	space, err := param.NewSpace(req.Params...)
	if err != nil {
		return Errorf("register: %v", err)
	}
	algo, err := harmony.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return Errorf("register: %v", err)
	}
	opts := harmony.Options{
		Algorithm:   algo,
		Seed:        req.Seed,
		GuardFactor: req.GuardFactor,
		ShiftFactor: req.ShiftFactor,
	}
	if err := opts.Validate(); err != nil {
		return Errorf("register: %v", err)
	}
	sess := harmony.NewSession(space, opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Errorf("server closed")
	}
	if _, dup := s.sessions[req.Session]; dup {
		return Errorf("register: session %q exists", req.Session)
	}
	s.sessions[req.Session] = &sessionState{names: newValueNames(space), session: sess}
	s.stats.sessionsCreated.Add(1)
	return Response{OK: true}
}

// restore recreates a session from a snapshot by deterministic replay.
func (s *Server) restore(req Request) Response {
	if req.Session == "" {
		return Errorf("restore: empty session name")
	}
	snap, err := harmony.LoadSnapshot(req.Snapshot)
	if err != nil {
		return Errorf("restore: %v", err)
	}
	sess, err := harmony.Restore(snap)
	if err != nil {
		return Errorf("restore: %v", err)
	}
	space, err := param.NewSpace(snap.Params...)
	if err != nil {
		return Errorf("restore: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Errorf("server closed")
	}
	if _, dup := s.sessions[req.Session]; dup {
		return Errorf("restore: session %q exists", req.Session)
	}
	s.sessions[req.Session] = &sessionState{names: newValueNames(space), session: sess}
	s.stats.sessionsCreated.Add(1)
	return Response{OK: true, Iterations: sess.Iterations()}
}

// Client is a connection to a tuning server.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	mu   sync.Mutex
	out  []byte   // the request line, reused under mu
	strs interner // strings decoded over and over, such as values-map keys

	// err is the first read or write error, under mu. After it the
	// stream may hold part of a request or answer, so the next answer
	// read could belong to an earlier request: the connection is closed
	// and every later call returns err.
	err error
}

// Dial connects to a tuning server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and reads one response. Safe for concurrent use.
// Once a read or write has failed, Do returns that error without sending.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return Response{}, c.err
	}
	out, err := AppendRequest(c.out[:0], &req)
	if err != nil {
		return Response{}, err
	}
	c.out = out
	if _, err := c.conn.Write(out); err != nil {
		return Response{}, c.fail(err)
	}
	line, err := readLine(c.r, MaxMessageSize)
	if err != nil {
		return Response{}, c.fail(err)
	}
	resp, err := decodeResponse(line, &c.strs)
	if err != nil {
		return Response{}, err
	}
	if !resp.OK && resp.Error == "" {
		resp.Error = "unknown server error"
	}
	return resp, nil
}

// fail records err as the connection's first stream error and closes
// the connection; c.mu is held.
func (c *Client) fail(err error) error {
	c.err = err
	_ = c.conn.Close() // the stream is unusable; err is what callers see
	return err
}

// Register creates a session with the given parameters.
func (c *Client) Register(session string, defs []param.Def, algorithm string, seed uint64) error {
	resp, err := c.Do(Request{Op: OpRegister, Session: session, Params: defs, Algorithm: algorithm, Seed: seed})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("hproto: %s", resp.Error)
	}
	return nil
}

// Next fetches the next configuration to measure.
func (c *Client) Next(session string) (param.Config, map[string]int64, error) {
	resp, err := c.Do(Request{Op: OpNext, Session: session})
	if err != nil {
		return nil, nil, err
	}
	if !resp.OK {
		return nil, nil, fmt.Errorf("hproto: %s", resp.Error)
	}
	return resp.Config, resp.Values, nil
}

// Report submits the measured performance for the last Next.
func (c *Client) Report(session string, perf float64) error {
	resp, err := c.Do(Request{Op: OpReport, Session: session, Perf: perf})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("hproto: %s", resp.Error)
	}
	return nil
}

// Best returns the best configuration and performance so far.
func (c *Client) Best(session string) (param.Config, float64, bool, error) {
	resp, err := c.Do(Request{Op: OpBest, Session: session})
	if err != nil {
		return nil, 0, false, err
	}
	if !resp.OK {
		return nil, 0, false, fmt.Errorf("hproto: %s", resp.Error)
	}
	return resp.Config, resp.Perf, resp.HavePerf, nil
}
