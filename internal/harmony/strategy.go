package harmony

import (
	"fmt"

	"webharmony/internal/param"
	"webharmony/internal/simplex"
)

// TierSpec describes one tier of the tunable system as a strategy sees it.
type TierSpec struct {
	Name  string
	Space *param.Space
	Nodes []int // node IDs currently serving the tier
	// Configs holds the nodes' current configurations, Configs[i] for
	// Nodes[i]; the strategies anchor their searches at them. A node
	// without one (a nil entry, or Configs shorter than Nodes) leaves its
	// session unanchored.
	Configs []param.Config
}

// StrategyKind selects a cluster tuning method (§III.B).
type StrategyKind int

const (
	// StrategyDefault uses a single tuning server for every parameter of
	// every node: dimension = Σ nodes×params. Slowest to converge.
	StrategyDefault StrategyKind = iota
	// StrategyDuplication tunes one parameter set per tier and copies the
	// values to every node of the tier: dimension = Σ tier params.
	StrategyDuplication
	// StrategyPartitioning runs an independent tuning server per work
	// line, each tuning the parameters of the line's nodes against the
	// line's own throughput.
	StrategyPartitioning
	// StrategyHybrid runs duplication for a first phase, then switches to
	// partitioning seeded from the duplication best (§III.B future work).
	StrategyHybrid
)

// String returns the strategy name.
func (k StrategyKind) String() string {
	switch k {
	case StrategyDefault:
		return "default"
	case StrategyDuplication:
		return "duplication"
	case StrategyPartitioning:
		return "partitioning"
	case StrategyHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// sessionMap describes how one session's configuration scatters to nodes:
// with spaces == nil the whole configuration goes to every node
// (duplication); otherwise the configuration is the concatenation of
// spaces[j] and slice j goes to nodes[j].
type sessionMap struct {
	nodes  []int
	spaces []*param.Space
}

// Strategy drives the tuning sessions of a cluster, one iteration at a
// time. It only proposes configurations and learns from their
// measurements: the caller applies Lookahead(1)[0] to the system it
// measures.
type Strategy struct {
	kind     StrategyKind
	opts     Options
	lines    int
	sessions []*Session
	maps     []sessionMap

	// layout captured at construction; strategies assume a stable cluster
	// during a tuning run (reconfiguration restarts tuning).
	tiers []TierSpec

	iters   int
	perf    []float64 // global WIPS per iteration
	best    float64
	bestIt  int
	hybridK int
	gen     int // session generations: bumped when the hybrid switches
}

// NewStrategy creates a tuning strategy of the given kind over the tier
// layout, its searches anchored at the tiers' current configurations. For
// StrategyPartitioning and StrategyHybrid, lines is the number of work
// lines the system was built with.
func NewStrategy(kind StrategyKind, tiers []TierSpec, lines int, opts Options) *Strategy {
	s := &Strategy{kind: kind, opts: opts, lines: lines, tiers: tiers}
	anchors := make(map[int]param.Config)
	for _, t := range tiers {
		for i, cfg := range t.Configs {
			anchors[t.Nodes[i]] = cfg
		}
	}
	switch kind {
	case StrategyDefault:
		s.initDefault(anchors)
	case StrategyDuplication:
		s.initDuplication(anchors)
	case StrategyPartitioning:
		s.initPartitioning(anchors)
	case StrategyHybrid:
		s.initDuplication(anchors)
		s.hybridK = 40 // duplication phase length before fine tuning
	default:
		panic(fmt.Sprintf("harmony: unknown strategy %d", kind))
	}
	return s
}

// sessionOpts derives per-session options with distinct seeds.
func (s *Strategy) sessionOpts(i int) Options {
	o := s.opts
	o.Seed = o.Seed*1315423911 + uint64(i+1)
	return o
}

// observerFor resolves the observer a session labeled label over space
// should use: a directly-set Observer wins, otherwise Observe derives one.
func (s *Strategy) observerFor(label string, space *param.Space) simplex.StepObserver {
	if s.opts.Observer != nil || s.opts.Observe == nil {
		return s.opts.Observer
	}
	return s.opts.Observe(label, space)
}

// initDefault builds one session over the concatenation of every node's
// space.
func (s *Strategy) initDefault(anchors map[int]param.Config) {
	var prefixes []string
	var m sessionMap
	for _, t := range s.tiers {
		for _, n := range t.Nodes {
			prefixes = append(prefixes, fmt.Sprintf("%s%d", t.Name, n))
			m.spaces = append(m.spaces, t.Space)
			m.nodes = append(m.nodes, n)
		}
	}
	all, err := param.Concat(prefixes, m.spaces)
	if err != nil {
		panic(err)
	}
	opts := s.sessionOpts(0)
	opts.Anchor = concatAnchor(anchors, m)
	opts.Observer = s.observerFor("all", all)
	s.sessions = []*Session{NewSession(all, opts)}
	s.maps = []sessionMap{m}
}

// concatAnchor builds the concatenated anchor configuration of a
// session's nodes, or nil if any node has none.
func concatAnchor(anchors map[int]param.Config, m sessionMap) param.Config {
	var anchor param.Config
	for _, n := range m.nodes {
		cfg := anchors[n]
		if cfg == nil {
			return nil
		}
		anchor = append(anchor, cfg...)
	}
	return anchor
}

// initDuplication builds one session per tier; each session's
// configuration is duplicated to every node of the tier.
func (s *Strategy) initDuplication(anchors map[int]param.Config) {
	s.sessions = nil
	s.maps = nil
	for i, t := range s.tiers {
		opts := s.sessionOpts(i)
		if len(t.Nodes) > 0 {
			opts.Anchor = anchors[t.Nodes[0]]
		}
		opts.Observer = s.observerFor(t.Name, t.Space)
		s.sessions = append(s.sessions, NewSession(t.Space, opts))
		s.maps = append(s.maps, sessionMap{nodes: t.Nodes})
	}
}

// initPartitioning builds one session per work line over the concatenation
// of the line's node spaces. Line l owns every l-th node of each tier (the
// same assignment the simulator's router uses).
func (s *Strategy) initPartitioning(anchors map[int]param.Config) {
	if s.lines < 1 {
		panic("harmony: partitioning needs at least one work line")
	}
	s.sessions = nil
	s.maps = nil
	for l := 0; l < s.lines; l++ {
		var prefixes []string
		var m sessionMap
		for _, t := range s.tiers {
			for i, n := range t.Nodes {
				if i%s.lines == l {
					prefixes = append(prefixes, fmt.Sprintf("%s%d", t.Name, n))
					m.spaces = append(m.spaces, t.Space)
					m.nodes = append(m.nodes, n)
				}
			}
		}
		lineSpace, err := param.Concat(prefixes, m.spaces)
		if err != nil {
			panic(err)
		}
		opts := s.sessionOpts(l)
		opts.Anchor = concatAnchor(anchors, m)
		opts.Observer = s.observerFor(fmt.Sprintf("line%d", l), lineSpace)
		s.sessions = append(s.sessions, NewSession(lineSpace, opts))
		s.maps = append(s.maps, m)
	}
}

// scatter distributes per-session configurations (obtained via get) to the
// nodes and returns the node → configuration map.
func (s *Strategy) scatter(get func(*Session) param.Config) map[int]param.Config {
	out := make(map[int]param.Config)
	for i, sess := range s.sessions {
		s.assign(i, get(sess), out)
	}
	return out
}

// assign scatters session i's configuration to its nodes, writing the
// per-node slices into out.
func (s *Strategy) assign(i int, cfg param.Config, out map[int]param.Config) {
	m := s.maps[i]
	if m.spaces == nil {
		for _, n := range m.nodes {
			out[n] = cfg.Clone()
		}
		return
	}
	for j, n := range m.nodes {
		out[n] = param.Slice(cfg, m.spaces, j)
	}
}

// Sessions returns the strategy's tuning sessions.
func (s *Strategy) Sessions() []*Session { return s.sessions }

// CommitStep completes one tuning iteration whose measurement the caller
// took: it reports the given measurement to every session as the answer
// to its pending proposal and updates the strategy's performance record.
// It is the only way a strategy advances, and it applies nothing: the
// caller must have measured the configurations Lookahead(1) proposes at
// the moment of the call; committing a measurement taken for any other
// configuration corrupts the search (speculative runners re-check the
// lookahead before every commit for exactly this reason).
func (s *Strategy) CommitStep(wips float64, lineWIPS []float64) {
	s.maybeSwitch()
	perLine := s.kind == StrategyPartitioning ||
		(s.kind == StrategyHybrid && s.iters >= s.hybridK)
	for l, sess := range s.sessions {
		sess.ask()
		if perLine && l < len(lineWIPS) {
			sess.Report(lineWIPS[l])
		} else {
			sess.Report(wips)
		}
	}
	s.iters++
	s.perf = append(s.perf, wips)
	if wips > s.best {
		s.best = wips
		s.bestIt = s.iters
	}
}

// Lookahead returns up to max upcoming iterations' node→configuration
// assignments without advancing any session: entry j is exactly what
// iteration Iterations()+j would stage. The joint depth is the minimum of
// the sessions' peek depths (at least one); a hybrid strategy's lookahead
// is additionally truncated at the duplication→partitioning switch, whose
// new sessions depend on the duplication phase's results. Entries are
// valid only while Epoch() is unchanged — a shift-detection restart
// re-anchors a session's search, invalidating everything peeked past it.
func (s *Strategy) Lookahead(max int) []map[int]param.Config {
	s.maybeSwitch()
	if max < 1 {
		max = 1
	}
	if s.kind == StrategyHybrid && s.gen == 0 && max > s.hybridK-s.iters {
		max = s.hybridK - s.iters
	}
	depth := max
	peeks := make([][]param.Config, len(s.sessions))
	for i, sess := range s.sessions {
		peeks[i] = sess.Peek(max)
		if len(peeks[i]) < depth {
			depth = len(peeks[i])
		}
	}
	out := make([]map[int]param.Config, 0, depth)
	for j := 0; j < depth; j++ {
		m := make(map[int]param.Config)
		for i := range s.sessions {
			s.assign(i, peeks[i][j], m)
		}
		out = append(out, m)
	}
	return out
}

// Epoch identifies the strategy's current search lineage: it advances
// whenever any session restarts (shift detection or an explicit Restart)
// and when the hybrid switches session generations. Speculative runners
// capture it alongside a Lookahead and discard any uncommitted candidates
// once a commit changes it — their proposals no longer match what the
// re-anchored sessions will ask next.
func (s *Strategy) Epoch() int {
	e := s.gen << 20
	for _, sess := range s.sessions {
		e += sess.Resets()
	}
	return e
}

// maybeSwitch performs the hybrid's one-time duplication→partitioning
// transition once the duplication phase has run its course: the per-line
// sessions' searches start from the duplication phase's best
// configurations. Both CommitStep and Lookahead call it, so a lookahead
// taken at the boundary peeks the sessions that will actually run next.
func (s *Strategy) maybeSwitch() {
	if s.kind == StrategyHybrid && s.gen == 0 && s.iters >= s.hybridK {
		s.initPartitioning(s.BestNodeConfigs())
		s.gen++
	}
}

// BestNodeConfigs returns, for every node, the configuration the strategy
// would deploy as its final answer (each session's best-ever point).
func (s *Strategy) BestNodeConfigs() map[int]param.Config {
	return s.scatter(func(sess *Session) param.Config {
		best, _, _ := sess.BestEver()
		return best
	})
}

// Perf returns the global WIPS time series, one value per iteration.
func (s *Strategy) Perf() []float64 { return s.perf }

// Best returns the best global WIPS observed and the iteration it
// occurred at (1-based; 0 if none).
func (s *Strategy) Best() (float64, int) { return s.best, s.bestIt }

// ExplorationIterations returns the iterations the strategy necessarily
// spends exploring its initial simplex before improvements can take
// effect — the "tuning n parameters requires exploring n+1 configurations"
// cost of §III.B, which is what separates the methods in Table 4's
// iterations column (the widest tuning server dominates; parallel sessions
// explore concurrently). For the hybrid, the duplication phase length is
// added once the partitioning phase has started.
func (s *Strategy) ExplorationIterations() int {
	worst := 0
	for _, sess := range s.sessions {
		if d := sess.Space().Len() + 1; d > worst {
			worst = d
		}
	}
	if s.kind == StrategyHybrid && s.iters >= s.hybridK {
		worst += s.hybridK
	}
	return worst
}
