// Package simplex implements the tuning algorithms at the kernel of the
// Active Harmony server. The primary algorithm is the Nelder-Mead simplex
// method adapted, as in §II.B of the paper, to the bounded integer lattices
// of server parameters: proposals made in a continuous unit cube are
// evaluated at the nearest feasible integer point.
//
// Because a live system yields exactly one performance measurement per
// tuning iteration, the algorithms are "ask/tell" state machines rather
// than closed-loop optimizers: Ask returns the next configuration to try,
// and Tell reports the measured cost (lower is better) for it.
package simplex

import (
	"fmt"

	"webharmony/internal/param"
	"webharmony/internal/rng"
)

// Tuner is a sequential configuration optimizer. Lower cost is better;
// callers maximizing throughput report the negated metric.
//
// The protocol is strict alternation: Ask, then Tell, then Ask...
// Implementations panic on protocol violations.
type Tuner interface {
	// Ask returns the next configuration to evaluate.
	Ask() param.Config
	// Tell reports the cost observed for the configuration returned by the
	// immediately preceding Ask.
	Tell(cost float64)
	// Reset re-centers the search around the given configuration,
	// discarding accumulated state. Used when the environment shifts
	// (e.g. the workload changes) and old measurements are stale.
	Reset(around param.Config)
	// Evaluations returns the number of completed Ask/Tell cycles.
	Evaluations() int
	// Peek returns up to max upcoming proposals without mutating the
	// tuner: Peek(k) followed by k Ask/Tell cycles yields exactly the
	// peeked configurations in order, whatever costs the Tells report.
	// At least one configuration is returned (the next Ask); fewer than
	// max when the tuner's later moves depend on costs it has not seen
	// yet (its tell-independent horizon). Like Ask, Peek panics while a
	// proposal is outstanding. Speculative evaluation engines use it to
	// fan candidate measurements out in parallel.
	Peek(max int) []param.Config
}

// Options configures a NelderMead tuner. Zero fields take the standard
// coefficients (alpha=1, gamma=2, rho=0.5, sigma=0.5, delta=0.25).
type Options struct {
	Alpha float64 // reflection coefficient
	Gamma float64 // expansion coefficient
	Rho   float64 // contraction coefficient
	Sigma float64 // shrink coefficient
	Delta float64 // initial simplex edge length in unit-cube units

	// GuardFactor, when in (0, 1), implements the paper's proposed
	// extreme-value guard: a proposal coordinate that lands on the cube
	// boundary is pulled back so it only moves GuardFactor of the distance
	// from the current best vertex to the boundary. 0 (or >= 1) disables
	// the guard, matching the published system.
	GuardFactor float64

	// Seed perturbs the initial simplex orientation; tuners with different
	// seeds explore in different orders.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Gamma == 0 {
		o.Gamma = 2
	}
	if o.Rho == 0 {
		o.Rho = 0.5
	}
	if o.Sigma == 0 {
		o.Sigma = 0.5
	}
	if o.Delta == 0 {
		o.Delta = 0.25
	}
	return o
}

type phase int

const (
	phaseInit phase = iota // evaluating the initial simplex vertices
	phaseReflect
	phaseExpand
	phaseContract
	phaseShrink
)

type vertex struct {
	u    []float64 // unit-cube coordinates
	cost float64
}

// NelderMead is the paper-adapted simplex tuner.
type NelderMead struct {
	space *param.Space
	opts  Options
	src   *rng.Source

	verts   []vertex
	phase   phase
	idx     int // vertex being evaluated during init/shrink
	pending []float64
	asked   bool

	reflected     vertex // candidate from the reflection step
	bestCost      float64
	haveBest      bool
	evals         int
	lastWasInside bool

	obs      StepObserver
	lastMove string // move kind of the outstanding Ask, reported at Tell
}

// SetObserver installs a step observer (nil detaches it).
func (nm *NelderMead) SetObserver(obs StepObserver) { nm.obs = obs }

// NewNelderMead creates a simplex tuner over the given space. The initial
// simplex is anchored at the space's default configuration.
func NewNelderMead(space *param.Space, opts Options) *NelderMead {
	nm := &NelderMead{
		space: space,
		opts:  opts.withDefaults(),
		src:   rng.New(opts.Seed ^ 0x5f3759df),
	}
	nm.initSimplex(space.DefaultConfig())
	return nm
}

// initSimplex builds the k+1 initial vertices around the anchor config.
func (nm *NelderMead) initSimplex(anchor param.Config) {
	k := nm.space.Len()
	base := nm.space.Normalize(anchor)
	nm.verts = make([]vertex, 0, k+1)
	nm.verts = append(nm.verts, vertex{u: base})
	for i := 0; i < k; i++ {
		u := append([]float64(nil), base...)
		d := nm.opts.Delta
		// Flip direction away from the nearer boundary so the vertex
		// stays inside the cube, with a small random jitter for tie-breaks.
		if u[i]+d > 1 {
			d = -d
		}
		u[i] += d
		u[i] += nm.src.Uniform(-0.02, 0.02)
		nm.verts = append(nm.verts, vertex{u: clampCube(u)})
	}
	nm.phase = phaseInit
	nm.idx = 0
	nm.asked = false
}

func clampCube(u []float64) []float64 {
	for i, v := range u {
		if v < 0 {
			u[i] = 0
		} else if v > 1 {
			u[i] = 1
		}
	}
	return u
}

// Ask returns the next configuration to evaluate.
func (nm *NelderMead) Ask() param.Config {
	if nm.asked {
		panic("simplex: Ask called twice without Tell")
	}
	nm.asked = true
	switch nm.phase {
	case phaseInit:
		nm.lastMove = "init"
		nm.pending = nm.verts[nm.idx].u
	case phaseShrink:
		nm.lastMove = "shrink"
		nm.pending = nm.verts[nm.idx].u
	case phaseReflect:
		nm.lastMove = "reflect"
		nm.pending = nm.reflectPoint(nm.opts.Alpha)
	case phaseExpand:
		nm.lastMove = "expand"
		nm.pending = nm.reflectPoint(nm.opts.Alpha * nm.opts.Gamma)
	case phaseContract:
		nm.lastMove = "contract"
		if nm.lastWasInside {
			nm.pending = nm.reflectPoint(-nm.opts.Rho)
		} else {
			nm.pending = nm.reflectPoint(nm.opts.Alpha * nm.opts.Rho)
		}
	}
	return nm.space.Denormalize(nm.pending)
}

// Peek returns up to max upcoming proposals without mutating the simplex.
// During init and shrink the remaining vertex evaluations are fully
// predetermined (Tell only records their costs until the phase completes),
// so the whole tail of the phase is visible; during reflect, expand and
// contract the next proposal is a pure function of the current simplex but
// every later move depends on the cost it draws, so the horizon is one.
func (nm *NelderMead) Peek(max int) []param.Config {
	if nm.asked {
		panic("simplex: Peek with an outstanding proposal")
	}
	if max < 1 {
		max = 1
	}
	var out []param.Config
	switch nm.phase {
	case phaseInit, phaseShrink:
		for i := nm.idx; i < len(nm.verts) && len(out) < max; i++ {
			out = append(out, nm.space.Denormalize(nm.verts[i].u))
		}
	case phaseReflect:
		out = append(out, nm.space.Denormalize(nm.reflectPoint(nm.opts.Alpha)))
	case phaseExpand:
		out = append(out, nm.space.Denormalize(nm.reflectPoint(nm.opts.Alpha*nm.opts.Gamma)))
	case phaseContract:
		coef := nm.opts.Alpha * nm.opts.Rho
		if nm.lastWasInside {
			coef = -nm.opts.Rho
		}
		out = append(out, nm.space.Denormalize(nm.reflectPoint(coef)))
	}
	return out
}

// reflectPoint returns centroid + coef*(centroid - worst), clamped to the
// cube and optionally guarded against extreme values.
func (nm *NelderMead) reflectPoint(coef float64) []float64 {
	k := len(nm.verts) - 1
	worst := nm.verts[len(nm.verts)-1]
	c := make([]float64, nm.space.Len())
	for _, v := range nm.verts[:k] {
		for i := range c {
			c[i] += v.u[i] / float64(k)
		}
	}
	u := make([]float64, len(c))
	for i := range c {
		u[i] = c[i] + coef*(c[i]-worst.u[i])
	}
	if g := nm.opts.GuardFactor; g > 0 && g < 1 {
		bestU := nm.verts[0].u
		for i := range u {
			if u[i] <= 0 {
				u[i] = bestU[i] * (1 - g) // move only g of the way to 0
			} else if u[i] >= 1 {
				u[i] = bestU[i] + (1-bestU[i])*g
			}
		}
	}
	return clampCube(u)
}

// Tell reports the cost of the configuration returned by the last Ask.
func (nm *NelderMead) Tell(cost float64) {
	if !nm.asked {
		panic("simplex: Tell without Ask")
	}
	nm.asked = false
	nm.evals++
	cfg := nm.space.Denormalize(nm.pending)
	if !nm.haveBest || cost < nm.bestCost {
		nm.bestCost = cost
		nm.haveBest = true
	}
	emit(nm.obs, Step{
		Move: nm.lastMove, Config: cfg,
		Cost: cost, BestCost: nm.bestCost, Evaluations: nm.evals,
	})

	switch nm.phase {
	case phaseInit:
		nm.verts[nm.idx].cost = cost
		nm.idx++
		if nm.idx == len(nm.verts) {
			nm.sortVerts()
			nm.phase = phaseReflect
		}
	case phaseShrink:
		nm.verts[nm.idx].cost = cost
		nm.idx++
		if nm.idx == len(nm.verts) {
			nm.sortVerts()
			nm.phase = phaseReflect
		}
	case phaseReflect:
		nm.reflected = vertex{u: append([]float64(nil), nm.pending...), cost: cost}
		switch {
		case cost < nm.verts[0].cost:
			nm.phase = phaseExpand
		case cost < nm.verts[len(nm.verts)-2].cost:
			nm.replaceWorst(nm.reflected)
			nm.phase = phaseReflect
		default:
			nm.lastWasInside = cost >= nm.verts[len(nm.verts)-1].cost
			nm.phase = phaseContract
		}
	case phaseExpand:
		if cost < nm.reflected.cost {
			nm.replaceWorst(vertex{u: append([]float64(nil), nm.pending...), cost: cost})
		} else {
			nm.replaceWorst(nm.reflected)
		}
		nm.phase = phaseReflect
	case phaseContract:
		worst := nm.verts[len(nm.verts)-1]
		ref := nm.reflected.cost
		if worst.cost < ref {
			ref = worst.cost
		}
		if cost < ref {
			nm.replaceWorst(vertex{u: append([]float64(nil), nm.pending...), cost: cost})
			nm.phase = phaseReflect
		} else {
			nm.shrink()
		}
	}
}

func (nm *NelderMead) sortVerts() {
	// Insertion sort: the simplex is small and mostly sorted.
	for i := 1; i < len(nm.verts); i++ {
		v := nm.verts[i]
		j := i - 1
		for j >= 0 && nm.verts[j].cost > v.cost {
			nm.verts[j+1] = nm.verts[j]
			j--
		}
		nm.verts[j+1] = v
	}
}

func (nm *NelderMead) replaceWorst(v vertex) {
	nm.verts[len(nm.verts)-1] = v
	nm.sortVerts()
}

// shrink pulls every vertex except the best toward the best and schedules
// their re-evaluation.
func (nm *NelderMead) shrink() {
	best := nm.verts[0]
	for i := 1; i < len(nm.verts); i++ {
		for j := range nm.verts[i].u {
			nm.verts[i].u[j] = best.u[j] + nm.opts.Sigma*(nm.verts[i].u[j]-best.u[j])
		}
		clampCube(nm.verts[i].u)
	}
	nm.phase = phaseShrink
	nm.idx = 1 // vertex 0 keeps its cost
}

// Reset re-centers the simplex around the given configuration and discards
// all stored costs; the next Asks re-evaluate a fresh simplex.
func (nm *NelderMead) Reset(around param.Config) {
	if nm.asked {
		// Abandon the outstanding proposal; the caller is restarting.
		nm.asked = false
	}
	nm.haveBest = false
	nm.initSimplex(around)
	emit(nm.obs, Step{Move: "reset", Config: around.Clone(), Evaluations: nm.evals})
}

// Evaluations returns the number of completed Ask/Tell cycles.
func (nm *NelderMead) Evaluations() int { return nm.evals }

// String describes the tuner state, for diagnostics.
func (nm *NelderMead) String() string {
	return fmt.Sprintf("NelderMead{dim=%d evals=%d phase=%d}", nm.space.Len(), nm.evals, nm.phase)
}
