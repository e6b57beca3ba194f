package simplex

import (
	"math"

	"webharmony/internal/param"
	"webharmony/internal/rng"
)

// SimulatedAnnealing is an ask/tell annealer over the parameter lattice.
// The paper's related work (Nimrod/O) applies simulated annealing to the
// same kind of search; it is included as a comparison algorithm. Proposals
// perturb a random subset of coordinates of the current point by a
// temperature-scaled step; worse results are accepted with the Metropolis
// probability, and the temperature decays geometrically per evaluation.
type SimulatedAnnealing struct {
	space *param.Space
	src   *rng.Source

	temp    float64 // current temperature, in unit-cube distance
	cooling float64 // per-evaluation temperature multiplier
	minTemp float64

	current     []float64 // unit-cube position of the accepted point
	currentCost float64

	pending []float64
	asked   bool
	first   bool

	bestCost float64
	haveBest bool
	evals    int

	// scale converts cost differences into acceptance probabilities; it
	// adapts to the observed cost magnitudes.
	scale float64

	obs StepObserver
}

// SetObserver installs a step observer (nil detaches it).
func (sa *SimulatedAnnealing) SetObserver(obs StepObserver) { sa.obs = obs }

// AnnealingOptions configures a SimulatedAnnealing tuner. Zero fields take
// defaults (initial temperature 0.25, cooling 0.97, minimum 0.01).
type AnnealingOptions struct {
	InitTemp float64
	Cooling  float64
	MinTemp  float64
	Seed     uint64
}

func (o AnnealingOptions) withDefaults() AnnealingOptions {
	if o.InitTemp == 0 {
		o.InitTemp = 0.25
	}
	if o.Cooling == 0 {
		o.Cooling = 0.97
	}
	if o.MinTemp == 0 {
		o.MinTemp = 0.01
	}
	return o
}

// NewSimulatedAnnealing creates an annealer anchored at the space default.
func NewSimulatedAnnealing(space *param.Space, opts AnnealingOptions) *SimulatedAnnealing {
	opts = opts.withDefaults()
	sa := &SimulatedAnnealing{
		space:   space,
		src:     rng.New(opts.Seed ^ 0xa77ea1),
		temp:    opts.InitTemp,
		cooling: opts.Cooling,
		minTemp: opts.MinTemp,
		first:   true,
	}
	sa.current = space.Normalize(space.DefaultConfig())
	return sa
}

// Ask returns the next configuration to evaluate.
func (sa *SimulatedAnnealing) Ask() param.Config {
	if sa.asked {
		panic("simplex: Ask called twice without Tell")
	}
	sa.asked = true
	if sa.first {
		sa.pending = append([]float64(nil), sa.current...)
		return sa.space.Denormalize(sa.pending)
	}
	// Perturb a random non-empty subset of coordinates.
	u := append([]float64(nil), sa.current...)
	k := 1 + sa.src.Intn(len(u))
	for _, i := range sa.src.Perm(len(u))[:k] {
		u[i] += sa.src.Normal(0, sa.temp)
	}
	sa.pending = clampCube(u)
	return sa.space.Denormalize(sa.pending)
}

// Peek returns the next proposal without mutating the annealer. The
// horizon is one: Tell decides acceptance with a Metropolis draw (and
// cools the temperature), so every later proposal depends on the cost.
// The perturbation draws are replayed on a clone of the rng stream.
func (sa *SimulatedAnnealing) Peek(max int) []param.Config {
	if sa.asked {
		panic("simplex: Peek with an outstanding proposal")
	}
	if sa.first {
		return []param.Config{sa.space.Denormalize(sa.current)}
	}
	src := sa.src.Clone()
	u := append([]float64(nil), sa.current...)
	k := 1 + src.Intn(len(u))
	for _, i := range src.Perm(len(u))[:k] {
		u[i] += src.Normal(0, sa.temp)
	}
	return []param.Config{sa.space.Denormalize(clampCube(u))}
}

// Tell reports the cost (lower is better) for the last proposal.
func (sa *SimulatedAnnealing) Tell(cost float64) {
	if !sa.asked {
		panic("simplex: Tell without Ask")
	}
	sa.asked = false
	sa.evals++
	cfg := sa.space.Denormalize(sa.pending)
	if !sa.haveBest || cost < sa.bestCost {
		sa.bestCost = cost
		sa.haveBest = true
	}
	move := "anneal"
	if sa.first {
		move = "init"
	}
	emit(sa.obs, Step{
		Move: move, Config: cfg,
		Cost: cost, BestCost: sa.bestCost, Evaluations: sa.evals,
	})
	if sa.first {
		sa.first = false
		sa.currentCost = cost
		sa.scale = math.Abs(cost)/10 + 1e-9
		return
	}
	accept := cost <= sa.currentCost
	if !accept {
		// Metropolis criterion on the adaptive cost scale.
		p := math.Exp(-(cost - sa.currentCost) / (sa.scale * sa.temp * 4))
		accept = sa.src.Bernoulli(p)
	}
	if accept {
		sa.current = append(sa.current[:0], sa.pending...)
		sa.currentCost = cost
	}
	sa.temp *= sa.cooling
	if sa.temp < sa.minTemp {
		sa.temp = sa.minTemp
	}
}

// Reset re-anchors the annealer at the given configuration and reheats.
func (sa *SimulatedAnnealing) Reset(around param.Config) {
	anchor := around.Clone()
	sa.space.Clamp(anchor)
	sa.current = sa.space.Normalize(anchor)
	sa.asked = false
	sa.haveBest = false
	sa.first = true
	sa.temp = 0.25
	emit(sa.obs, Step{Move: "reset", Config: anchor.Clone(), Evaluations: sa.evals})
}

// Evaluations returns the number of completed Ask/Tell cycles.
func (sa *SimulatedAnnealing) Evaluations() int { return sa.evals }

var _ Tuner = (*SimulatedAnnealing)(nil)
