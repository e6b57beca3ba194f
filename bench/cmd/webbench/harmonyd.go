package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"sync"
	"time"

	"webharmony/internal/cluster"
	"webharmony/internal/harmony"
	"webharmony/internal/hproto"
	"webharmony/internal/param"
	"webharmony/internal/rng"
	"webharmony/internal/websim"
)

func harmonydSize(sz sizes) string {
	return fmt.Sprintf("in-process hproto server, %d connections in a closed loop; session = Register (23-parameter Table 3 space, nelder-mead) + %d Next/Report rounds + Best + Close; %d untimed sessions per connection in set-up",
		sz.Workers, sz.Rounds, sz.WarmSessions)
}

var rpcOps = []hproto.Op{hproto.OpRegister, hproto.OpNext, hproto.OpReport, hproto.OpBest, hproto.OpClose}

// opSpanEvery: a traced run records a span for every request of every
// opSpanEvery-th session and one span per session otherwise. A span per
// request of every session would be ~60k spans a second of run.
const opSpanEvery = 16

// harmonydRun is the harmonyd workload: the tuning server cmd/harmonyd
// wraps, driven over loopback TCP by one closed-loop client per
// connection, each repeating a session lifecycle against a synthetic
// response surface.
type harmonydRun struct {
	seed  uint64
	sz    sizes
	srv   *hproto.Server
	conns []*hproto.Client
	space *param.Space

	sent     connLog                  // what every client sent, warm-up included
	bests    [2][][]string            // phase → connection → Best digest per session
	perOp    [2]map[hproto.Op]*usHist // phase → round trips by op
	replayUS *usHist                  // in-process NextConfig+Report pairs
}

// connLog is what one connection did in one loop.
type connLog struct {
	frames, asks, tells, infeasible int
	units                           []float64
	perOp                           map[hproto.Op]*usHist
	bests                           []string
	err                             error
}

// tableSpace is the 23-parameter space of Table 3: every tier's knobs.
func tableSpace() (*param.Space, error) {
	var prefixes []string
	var spaces []*param.Space
	for _, t := range cluster.Tiers() {
		prefixes = append(prefixes, t.String())
		spaces = append(spaces, websim.SpaceFor(t))
	}
	return param.Concat(prefixes, spaces)
}

func startHarmonyd(e env) (instance, error) {
	space, err := tableSpace()
	if err != nil {
		return nil, err
	}
	srv, err := hproto.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harmonydRun{seed: e.seed, sz: e.sz, srv: srv, space: space}
	for c := 0; c < e.sz.Workers; c++ {
		cl, err := hproto.Dial(srv.Addr())
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, cl)
	}
	for _, l := range h.loop(nil, "warm", func(k int) bool { return k < e.sz.WarmSessions }) {
		if l.err != nil {
			h.close()
			return nil, l.err
		}
	}
	return h, nil
}

func (h *harmonydRun) close() {
	for _, cl := range h.conns {
		cl.Close()
	}
	h.srv.Close()
}

// loop runs sessions on every connection at once, session k of each
// connection starting while more(k), and returns one log per connection.
func (h *harmonydRun) loop(tr *tracer, prefix string, more func(k int) bool) []connLog {
	logs := make([]connLog, len(h.conns))
	var wg sync.WaitGroup
	for c := range h.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			l.perOp = map[hproto.Op]*usHist{}
			for _, op := range rpcOps {
				l.perOp[op] = newUSHist(histRangeUS)
			}
			for k := 0; more(k); k++ {
				t0 := time.Now()
				best, err := h.session(tr, l, c, k, fmt.Sprintf("%s-c%d-s%d", prefix, c, k))
				if err != nil {
					l.err = fmt.Errorf("connection %d session %d: %w", c, k, err)
					return
				}
				l.units = append(l.units, time.Since(t0).Seconds())
				l.bests = append(l.bests, best)
			}
		}(c)
	}
	wg.Wait()
	for _, l := range logs {
		h.sent.frames += l.frames
		h.sent.asks += l.asks
		h.sent.tells += l.tells
		h.sent.infeasible += l.infeasible
	}
	return logs
}

// sessionSeed is the tuner seed of session k on connection c.
func sessionSeed(seed uint64, c, k int) uint64 {
	return rng.TaskSeed(seed, uint64(c)<<32|uint64(k))
}

// session runs one lifecycle and returns the digest of its Best answer.
func (h *harmonydRun) session(tr *tracer, l *connLog, c, k int, name string) (string, error) {
	cl := h.conns[c]
	seed := sessionSeed(h.seed, c, k)
	target := surfaceTarget(seed, h.space.Len())
	root := tr.begin("session", 0, uint64(c)<<32|uint64(k)+1)
	defer tr.end(root)
	opTr := tr
	if k%opSpanEvery != 0 {
		opTr = nil
	}
	call := func(op hproto.Op, f func() error) error {
		sp := opTr.begin("hproto.Client."+string(op), root.ID, root.Trace)
		t0 := time.Now()
		err := f()
		l.perOp[op].observe(time.Since(t0))
		opTr.end(sp)
		l.frames++
		return err
	}
	err := call(hproto.OpRegister, func() error {
		return cl.Register(name, h.space.Defs(), "nelder-mead", seed)
	})
	if err != nil {
		return "", err
	}
	for r := 0; r < h.sz.Rounds; r++ {
		var cfg param.Config
		if err := call(hproto.OpNext, func() (err error) {
			cfg, _, err = cl.Next(name)
			return err
		}); err != nil {
			return "", err
		}
		l.asks++
		if !h.space.Feasible(cfg) {
			l.infeasible++
			continue
		}
		if err := call(hproto.OpReport, func() error {
			return cl.Report(name, surface(h.space, target, cfg))
		}); err != nil {
			return "", err
		}
		l.tells++
	}
	var (
		best param.Config
		perf float64
		have bool
	)
	if err := call(hproto.OpBest, func() (err error) {
		best, perf, have, err = cl.Best(name)
		return err
	}); err != nil {
		return "", err
	}
	err = call(hproto.OpClose, func() error {
		resp, err := cl.Do(hproto.Request{Op: hproto.OpClose, Session: name})
		if err == nil && !resp.OK {
			err = errors.New(resp.Error)
		}
		return err
	})
	return bestDigest(best, perf, have), err
}

// surfaceTarget is the optimum of a session's synthetic surface.
func surfaceTarget(seed uint64, n int) []float64 {
	src := rng.New(seed)
	t := make([]float64, n)
	for i := range t {
		t[i] = 0.2 + 0.6*src.Float64()
	}
	return t
}

// surface is the cheap synthetic performance a client reports: highest
// at target, falling with the squared normalized distance from it.
func surface(space *param.Space, target []float64, cfg param.Config) float64 {
	var d float64
	for i, u := range space.Normalize(cfg) {
		d += (u - target[i]) * (u - target[i])
	}
	return 1000 * (1 - d/float64(len(target)))
}

func bestDigest(cfg param.Config, perf float64, have bool) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, []int64(cfg))
	binary.Write(h, binary.LittleEndian, math.Float64bits(perf))
	binary.Write(h, binary.LittleEndian, have)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (h *harmonydRun) phase(ph *phase, deadline time.Time) {
	logs := h.loop(ph.tr, fmt.Sprintf("p%d", ph.index), func(k int) bool {
		return k == 0 || time.Now().Before(deadline)
	})
	ph.rtt = newUSHist(histRangeUS)
	h.perOp[ph.index] = map[hproto.Op]*usHist{}
	for _, op := range rpcOps {
		h.perOp[ph.index][op] = newUSHist(histRangeUS)
	}
	for _, l := range logs {
		ph.units = append(ph.units, l.units...)
		ph.ops += l.frames
		if l.err != nil {
			ph.fail(l.err)
		}
		for op, hist := range l.perOp {
			h.perOp[ph.index][op].merge(hist)
			ph.rtt.merge(hist)
		}
		h.bests[ph.index] = append(h.bests[ph.index], l.bests)
	}
}

func (h *harmonydRun) check(c *checker, phases []*phase) {
	c.check("configs-feasible", h.sent.infeasible == 0, "%d infeasible configurations", h.sent.infeasible)

	var vars struct{ Asks, Tells, Frames int }
	rec := httptest.NewRecorder()
	h.srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	err := json.Unmarshal(rec.Body.Bytes(), &vars)
	c.check("server-counters", err == nil && vars.Asks == h.sent.asks && vars.Tells == h.sent.tells && vars.Frames == h.sent.frames,
		"server asks/tells/frames %d/%d/%d, clients %d/%d/%d (%v)",
		vars.Asks, vars.Tells, vars.Frames, h.sent.asks, h.sent.tells, h.sent.frames, err)

	// Replay sessions of connection 0 in-process, without the wire: the
	// tuner must reach the same Best.
	n := 1
	if len(phases) > 1 {
		n = h.sz.Replays
	}
	wire := h.bests[0][0]
	n = min(n, len(wire))
	h.replayUS = newUSHist(histRangeUS)
	same := true
	for k := 0; k < n; k++ {
		same = same && h.replay(sessionSeed(h.seed, 0, k), h.replayUS) == wire[k]
	}
	c.check("in-process-replay", same, "an in-process session reached a different Best than over the wire")

	if len(phases) > 1 {
		same := true
		for conn := range h.bests[0] {
			a, b := h.bests[0][conn], h.bests[1][conn]
			for k := 0; k < min(len(a), len(b)); k++ {
				same = same && a[k] == b[k]
			}
		}
		c.check("traced-equals-untraced", same, "a traced session reached a different Best")
	}
}

// replay runs one session's lifecycle on an in-process harmony.Session,
// timing each NextConfig+Report pair, and returns its Best digest.
func (h *harmonydRun) replay(seed uint64, hist *usHist) string {
	s := harmony.NewSession(h.space, harmony.Options{Algorithm: harmony.AlgoNelderMead, Seed: seed})
	target := surfaceTarget(seed, h.space.Len())
	for r := 0; r < h.sz.Rounds; r++ {
		t0 := time.Now()
		cfg := s.NextConfig()
		d := time.Since(t0)
		perf := surface(h.space, target, cfg)
		t1 := time.Now()
		s.Report(perf)
		hist.observe(d + time.Since(t1))
	}
	return bestDigest(s.Best())
}

func (h *harmonydRun) layers(m map[string]float64, phases []*phase) {
	un := phases[0]
	m["rtt_us_p50"] = un.rtt.quantile(50)
	m["rtt_us_p99"] = un.rtt.quantile(99)
	tr := h.perOp[1]
	m["hproto.register_rtt_us_p50"] = tr[hproto.OpRegister].quantile(50)
	m["hproto.next_rtt_us_p50"] = tr[hproto.OpNext].quantile(50)
	m["hproto.report_rtt_us_p50"] = tr[hproto.OpReport].quantile(50)
	m["hproto.frames_per_session"] = float64(un.ops) / float64(len(un.units))
	m["harmony.ask_tell_us_p50"] = h.replayUS.quantile(50)
}

func (h *harmonydRun) digest() string {
	f := fnv.New64a()
	for _, bests := range h.bests[0] {
		if len(bests) > 0 {
			f.Write([]byte(bests[0]))
		}
	}
	return fmt.Sprintf("%016x", f.Sum64())
}
