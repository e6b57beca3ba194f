package simplex

import (
	"webharmony/internal/param"
	"webharmony/internal/rng"
)

// RandomSearch proposes uniform random lattice points. It is the naive
// baseline the simplex method is compared against in the ablation
// benchmarks.
type RandomSearch struct {
	space    *param.Space
	src      *rng.Source
	pending  param.Config
	asked    bool
	bestCost float64
	haveBest bool
	evals    int
	first    bool

	obs      StepObserver
	lastMove string
}

// NewRandomSearch creates a random-search tuner; the first proposal is the
// space default so the baseline configuration is always measured.
func NewRandomSearch(space *param.Space, seed uint64) *RandomSearch {
	return &RandomSearch{space: space, src: rng.New(seed ^ 0xdecafbad), first: true}
}

// SetObserver installs a step observer (nil detaches it).
func (r *RandomSearch) SetObserver(obs StepObserver) { r.obs = obs }

// Ask returns the next configuration to evaluate.
func (r *RandomSearch) Ask() param.Config {
	if r.asked {
		panic("simplex: Ask called twice without Tell")
	}
	r.asked = true
	r.lastMove = "random"
	if r.first {
		r.first = false
		r.lastMove = "init"
		r.pending = r.space.DefaultConfig()
		return r.pending.Clone()
	}
	u := make([]float64, r.space.Len())
	for i := range u {
		u[i] = r.src.Float64()
	}
	r.pending = r.space.Denormalize(u)
	return r.pending.Clone()
}

// Peek returns up to max upcoming proposals without mutating the search.
// Random search is fully tell-independent — Tell never touches the rng
// stream — so the horizon is unbounded: the draws are replayed on a clone.
func (r *RandomSearch) Peek(max int) []param.Config {
	if r.asked {
		panic("simplex: Peek with an outstanding proposal")
	}
	if max < 1 {
		max = 1
	}
	out := make([]param.Config, 0, max)
	src := r.src.Clone()
	first := r.first
	for len(out) < max {
		if first {
			first = false
			out = append(out, r.space.DefaultConfig())
			continue
		}
		u := make([]float64, r.space.Len())
		for i := range u {
			u[i] = src.Float64()
		}
		out = append(out, r.space.Denormalize(u))
	}
	return out
}

// Tell reports the cost for the last proposal.
func (r *RandomSearch) Tell(cost float64) {
	if !r.asked {
		panic("simplex: Tell without Ask")
	}
	r.asked = false
	r.evals++
	if !r.haveBest || cost < r.bestCost {
		r.bestCost = cost
		r.haveBest = true
	}
	emit(r.obs, Step{
		Move: r.lastMove, Config: r.pending,
		Cost: cost, BestCost: r.bestCost, Evaluations: r.evals,
	})
}

// Reset discards history; random search has no positional state to recenter.
func (r *RandomSearch) Reset(around param.Config) {
	r.asked = false
	r.haveBest = false
	r.first = true
	emit(r.obs, Step{Move: "reset", Evaluations: r.evals})
}

// Evaluations returns the number of completed Ask/Tell cycles.
func (r *RandomSearch) Evaluations() int { return r.evals }

// CoordinateSearch is a cyclic hill climber: it sweeps one parameter at a
// time, trying the current value plus and minus a step, keeping whichever
// improves, and halving the step when a full sweep yields no improvement.
// It models "tune each knob independently" — the manual strategy the paper
// argues against for coupled systems.
type CoordinateSearch struct {
	space   *param.Space
	current param.Config
	curCost float64
	haveCur bool

	dim      int
	dir      int // +1 then -1 per dimension
	step     []float64
	improved bool

	pending  param.Config
	asked    bool
	bestCost float64
	haveBest bool
	evals    int
	phase    int // 0: evaluate current; 1: probing

	obs      StepObserver
	lastMove string
}

// SetObserver installs a step observer (nil detaches it).
func (c *CoordinateSearch) SetObserver(obs StepObserver) { c.obs = obs }

// NewCoordinateSearch creates a coordinate-descent tuner anchored at the
// space default. initialStep is in unit-cube units (0 uses 0.25).
func NewCoordinateSearch(space *param.Space, initialStep float64) *CoordinateSearch {
	if initialStep <= 0 {
		initialStep = 0.25
	}
	steps := make([]float64, space.Len())
	for i := range steps {
		steps[i] = initialStep
	}
	return &CoordinateSearch{
		space:   space,
		current: space.DefaultConfig(),
		step:    steps,
		dir:     1,
	}
}

// Ask returns the next configuration to evaluate.
func (c *CoordinateSearch) Ask() param.Config {
	if c.asked {
		panic("simplex: Ask called twice without Tell")
	}
	c.asked = true
	c.lastMove = "probe"
	if c.phase == 0 {
		c.lastMove = "init"
		c.pending = c.current.Clone()
		return c.pending.Clone()
	}
	u := c.space.Normalize(c.current)
	u[c.dim] += float64(c.dir) * c.step[c.dim]
	c.pending = c.space.Denormalize(clampCube(u))
	return c.pending.Clone()
}

// Peek returns up to max upcoming proposals without mutating the search.
// Evaluating the anchor (phase 0) never depends on its cost, and the first
// probe direction is fixed, so the horizon from phase 0 is two; once
// probing, each accept/reject decision steers the sweep, so it is one.
func (c *CoordinateSearch) Peek(max int) []param.Config {
	if c.asked {
		panic("simplex: Peek with an outstanding proposal")
	}
	if max < 1 {
		max = 1
	}
	probe := func() param.Config {
		u := c.space.Normalize(c.current)
		u[c.dim] += float64(c.dir) * c.step[c.dim]
		return c.space.Denormalize(clampCube(u))
	}
	if c.phase == 0 {
		out := []param.Config{c.current.Clone()}
		if max > 1 {
			out = append(out, probe())
		}
		return out
	}
	return []param.Config{probe()}
}

// Tell reports the cost for the last proposal.
func (c *CoordinateSearch) Tell(cost float64) {
	if !c.asked {
		panic("simplex: Tell without Ask")
	}
	c.asked = false
	c.evals++
	if !c.haveBest || cost < c.bestCost {
		c.bestCost = cost
		c.haveBest = true
	}
	emit(c.obs, Step{
		Move: c.lastMove, Config: c.pending,
		Cost: cost, BestCost: c.bestCost, Evaluations: c.evals,
	})
	if c.phase == 0 {
		c.curCost = cost
		c.haveCur = true
		c.phase = 1
		return
	}
	if cost < c.curCost {
		c.current = c.pending.Clone()
		c.curCost = cost
		c.improved = true
	}
	c.advance()
}

func (c *CoordinateSearch) advance() {
	if c.dir == 1 {
		c.dir = -1
		return
	}
	c.dir = 1
	c.dim++
	if c.dim >= c.space.Len() {
		c.dim = 0
		if !c.improved {
			for i := range c.step {
				c.step[i] /= 2
			}
		}
		c.improved = false
	}
}

// Reset re-anchors the search at the given configuration.
func (c *CoordinateSearch) Reset(around param.Config) {
	c.asked = false
	c.haveBest = false
	c.haveCur = false
	c.current = around.Clone()
	c.space.Clamp(c.current)
	c.dim = 0
	c.dir = 1
	c.phase = 0
	for i := range c.step {
		c.step[i] = 0.25
	}
	emit(c.obs, Step{Move: "reset", Config: c.current.Clone(), Evaluations: c.evals})
}

// Evaluations returns the number of completed Ask/Tell cycles.
func (c *CoordinateSearch) Evaluations() int { return c.evals }

// Compile-time interface checks.
var (
	_ Tuner = (*NelderMead)(nil)
	_ Tuner = (*RandomSearch)(nil)
	_ Tuner = (*CoordinateSearch)(nil)
)
