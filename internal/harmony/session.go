// Package harmony implements the Active Harmony tuning server: tuning
// sessions that drive an ask/tell optimizer over a parameter space from
// one performance observation per iteration, plus the cluster-scale tuning
// strategies of §III.B of the paper — a single server for all parameters
// (the default), parameter duplication (one space per tier, values copied
// to every node of the tier), and parameter partitioning (an independent
// tuning server per work line).
package harmony

import (
	"fmt"
	"math"

	"webharmony/internal/param"
	"webharmony/internal/simplex"
)

// Algorithm selects the session's search kernel.
type Algorithm int

const (
	// AlgoNelderMead is the paper's adapted simplex method (the default).
	AlgoNelderMead Algorithm = iota
	// AlgoRandom is uniform random search (baseline).
	AlgoRandom
	// AlgoCoordinate is one-knob-at-a-time hill climbing (baseline).
	AlgoCoordinate
	// AlgoAnnealing is simulated annealing (the related-work Nimrod/O
	// approach; baseline).
	AlgoAnnealing
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgoNelderMead:
		return "nelder-mead"
	case AlgoRandom:
		return "random"
	case AlgoCoordinate:
		return "coordinate"
	case AlgoAnnealing:
		return "annealing"
	default:
		return "unknown"
	}
}

// ParseAlgorithm maps an algorithm name, as String renders it, back to
// the Algorithm; "" selects the default, AlgoNelderMead.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "", "nelder-mead":
		return AlgoNelderMead, nil
	case "random":
		return AlgoRandom, nil
	case "coordinate":
		return AlgoCoordinate, nil
	case "annealing":
		return AlgoAnnealing, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// Options configures a tuning session.
type Options struct {
	Algorithm Algorithm
	Seed      uint64

	// GuardFactor enables the extreme-value guard in the simplex kernel
	// (§III.A future work); 0 disables it, matching the published system.
	GuardFactor float64

	// Anchor, when non-nil, is the configuration the search starts from
	// (the system's currently-running configuration); nil anchors at the
	// space defaults.
	Anchor param.Config

	// ShiftFactor enables workload-shift detection: when the session's
	// recent performance deviates from the performance remembered for its
	// best configuration by more than this relative factor for
	// ShiftPatience consecutive iterations, the search restarts around the
	// current best configuration (Figure 5 responsiveness). 0 disables.
	ShiftFactor   float64
	ShiftPatience int

	// Observer, when non-nil, receives one simplex.Step per completed
	// tuning step of the session's kernel, plus a "shift-restart" step
	// when shift detection fires. It runs synchronously on the tuning
	// path and must be cheap; nil disables tracing. Not persisted by
	// Save/Restore.
	Observer simplex.StepObserver `json:"-"`

	// Observe, when non-nil, derives a per-session Observer inside the
	// cluster strategies: it is called once per session with the
	// session's label ("all" for the default method, the tier name under
	// duplication, "lineN" under partitioning) and parameter space.
	// Ignored when Observer is set directly.
	Observe func(label string, space *param.Space) simplex.StepObserver `json:"-"`
}

// Validate rejects factors the session would silently ignore: a
// GuardFactor outside [0, 1) (the kernel applies the guard only inside
// (0, 1)) and a ShiftFactor that is not finite or is below 0 (a NaN or
// +Inf factor never fires, so it would turn shift detection off).
func (o Options) Validate() error {
	if !(o.GuardFactor >= 0 && o.GuardFactor < 1) {
		return fmt.Errorf("guard factor %v is outside [0, 1)", o.GuardFactor)
	}
	if math.IsNaN(o.ShiftFactor) || math.IsInf(o.ShiftFactor, 0) || o.ShiftFactor < 0 {
		return fmt.Errorf("shift factor %v is not a finite value >= 0", o.ShiftFactor)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.ShiftPatience == 0 {
		o.ShiftPatience = 3
	}
	return o
}

// Record is one completed tuning iteration; History()[i] is iteration i+1.
type Record struct {
	Config param.Config
	Perf   float64 // measured performance (higher is better)
}

// Session is one Active Harmony tuning server instance: it owns a
// parameter space and proposes one configuration per iteration.
type Session struct {
	space *param.Space
	opts  Options
	tuner simplex.Tuner

	pending  param.Config
	asked    bool
	history  []Record
	bestCfg  param.Config
	bestPerf float64
	haveBest bool

	shiftStreak int
	resets      int
}

// NewSession creates a tuning session over the given space.
func NewSession(space *param.Space, opts Options) *Session {
	opts = opts.withDefaults()
	s := &Session{space: space, opts: opts}
	s.tuner = s.newTuner()
	if opts.Observer != nil {
		// Attach before the anchored Reset below so the trace records
		// where the search started.
		if o, ok := s.tuner.(simplex.Observable); ok {
			o.SetObserver(opts.Observer)
		}
	}
	if opts.Anchor != nil {
		anchor := opts.Anchor.Clone()
		space.Clamp(anchor)
		s.tuner.Reset(anchor)
	}
	return s
}

func (s *Session) newTuner() simplex.Tuner {
	switch s.opts.Algorithm {
	case AlgoRandom:
		return simplex.NewRandomSearch(s.space, s.opts.Seed)
	case AlgoCoordinate:
		return simplex.NewCoordinateSearch(s.space, 0)
	case AlgoAnnealing:
		return simplex.NewSimulatedAnnealing(s.space, simplex.AnnealingOptions{Seed: s.opts.Seed})
	default:
		return simplex.NewNelderMead(s.space, simplex.Options{
			Seed:        s.opts.Seed,
			GuardFactor: s.opts.GuardFactor,
		})
	}
}

// Space returns the session's parameter space.
func (s *Session) Space() *param.Space { return s.space }

// NextConfig returns the configuration to run for the next iteration.
func (s *Session) NextConfig() param.Config {
	s.ask()
	return s.pending.Clone()
}

// ask makes the session's next proposal pending, unless one already is.
func (s *Session) ask() {
	if !s.asked {
		s.pending = s.tuner.Ask()
		s.asked = true
	}
}

// Peek returns up to max upcoming proposals without advancing the
// session: provided no Restart intervenes, the next NextConfig/Report
// cycles will propose exactly these configurations, in order, whatever
// performance the Reports carry. At least one configuration is returned;
// fewer than max when the kernel's later moves depend on measurements it
// has not seen yet. With an outstanding proposal only that proposal is
// visible (its Report may steer everything after it).
func (s *Session) Peek(max int) []param.Config {
	if max < 1 {
		max = 1
	}
	if s.asked {
		return []param.Config{s.pending.Clone()}
	}
	return s.tuner.Peek(max)
}

// Report records the measured performance (higher is better) of the
// configuration returned by the last NextConfig.
func (s *Session) Report(perf float64) {
	if !s.asked {
		panic("harmony: Report without NextConfig")
	}
	s.asked = false
	s.tuner.Tell(-perf) // tuners minimize cost
	s.history = append(s.history, Record{
		Config: s.pending.Clone(),
		Perf:   perf,
	})
	if !s.haveBest || perf > s.bestPerf {
		s.bestCfg = s.pending.Clone()
		s.bestPerf = perf
		s.haveBest = true
		s.shiftStreak = 0
		return
	}
	s.maybeDetectShift(perf)
}

// maybeDetectShift restarts the search when sustained performance deviates
// from the remembered best — the environment (workload) has changed and
// stored measurements are stale.
func (s *Session) maybeDetectShift(perf float64) {
	if s.opts.ShiftFactor <= 0 || !s.haveBest || s.bestPerf <= 0 {
		return
	}
	dev := perf/s.bestPerf - 1
	if dev < 0 {
		dev = -dev
	}
	if dev > s.opts.ShiftFactor {
		s.shiftStreak++
	} else {
		s.shiftStreak = 0
	}
	if s.shiftStreak >= s.opts.ShiftPatience {
		if s.opts.Observer != nil {
			// Record why the search is about to re-anchor: the tuner's
			// own Reset step follows with the new anchor.
			s.opts.Observer(simplex.Step{
				Move: "shift-restart",
				Cost: -perf, BestCost: -s.bestPerf,
				Evaluations: s.tuner.Evaluations(),
			})
		}
		s.Restart()
	}
}

// Restart re-centers the search around the current best configuration and
// forgets the remembered best performance, so the session re-learns the
// new environment. Safe to call at any point between iterations.
func (s *Session) Restart() {
	anchor := s.space.DefaultConfig()
	if s.haveBest {
		anchor = s.bestCfg
	}
	s.tuner.Reset(anchor)
	s.haveBest = false
	s.shiftStreak = 0
	s.resets++
}

// Best returns the best configuration and performance seen since the last
// restart.
func (s *Session) Best() (param.Config, float64, bool) {
	if !s.haveBest {
		return s.space.DefaultConfig(), 0, false
	}
	return s.bestCfg.Clone(), s.bestPerf, true
}

// BestEver returns the best configuration over the whole history
// (including before restarts).
func (s *Session) BestEver() (param.Config, float64, bool) {
	var cfg param.Config
	best := 0.0
	found := false
	for _, r := range s.history {
		if !found || r.Perf > best {
			cfg, best, found = r.Config, r.Perf, true
		}
	}
	if !found {
		return s.space.DefaultConfig(), 0, false
	}
	return cfg.Clone(), best, true
}

// History returns the completed iterations. Callers must not modify it.
func (s *Session) History() []Record { return s.history }

// Iterations returns the number of completed iterations.
func (s *Session) Iterations() int { return len(s.history) }

// Resets returns how many times the search restarted (shift detections
// plus explicit Restart calls).
func (s *Session) Resets() int { return s.resets }

// String describes the session.
func (s *Session) String() string {
	return fmt.Sprintf("Session{dim=%d algo=%v iters=%d resets=%d}",
		s.space.Len(), s.opts.Algorithm, len(s.history), s.resets)
}
