// Package rng provides deterministic pseudo-random number generation and
// the probability distributions used by the web-cluster simulator.
//
// Everything in this repository that is stochastic draws from an rng.Source
// seeded explicitly by the caller, so a whole experiment is reproducible
// bit-for-bit from its seed. Sources can be split into independent streams
// (one per emulated browser, per cache, per server...) so that adding a
// consumer does not perturb the draws seen by the others.
package rng

import "math"

// Source is a deterministic 64-bit pseudo-random source based on
// xoshiro256**, seeded via splitmix64. It is NOT safe for concurrent use;
// split independent streams instead (see Split).
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output.
// It is used both for seeding and for deriving split streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	src := Seeded(seed)
	return &src
}

// Seeded returns a Source value seeded exactly as New(seed) — same seeding,
// same stream — for transient throwaway sources that should live on the
// caller's stack instead of costing a heap allocation each.
func Seeded(seed uint64) Source {
	s := seed
	return Source{
		s0: splitmix64(&s),
		s1: splitmix64(&s),
		s2: splitmix64(&s),
		s3: splitmix64(&s),
	}
}

// Clone returns an independent copy of the source frozen at its current
// state: the clone produces exactly the stream the original would, without
// advancing it. This is what non-committing lookahead needs — a tuner can
// replay the draws its next Ask would make on a clone and leave its real
// stream untouched.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

// Split derives an independent child stream from the source's current state
// and the given salt. The parent's state advances, so successive splits with
// the same salt still produce distinct children.
func (s *Source) Split(salt uint64) *Source {
	mix := s.Uint64() ^ (salt * 0x9e3779b97f4a7c15)
	return New(mix)
}

// TaskSeed derives an independent seed for task index task from a base
// seed. Unlike Source.Split it is a pure function of (base, task) — no
// stream state advances — so parallel workers can derive their tasks'
// seeds in any order and still agree bit-for-bit with a sequential run.
// This is the seed-derivation contract for experiment fan-outs that need
// per-task streams (multi-seed replication): task i of a run seeded s
// uses TaskSeed(s, i), independent of which worker runs it.
func TaskSeed(base, task uint64) uint64 {
	s := base + (task+1)*0x9e3779b97f4a7c15
	x := splitmix64(&s)
	return x ^ splitmix64(&s)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
// The mean must be positive.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	u := s.Float64()
	// Guard against log(0).
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (s *Source) Normal(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value whose underlying
// normal has parameters mu and sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto returns a Pareto-distributed value with the given scale (minimum)
// and shape alpha. Used for heavy-tailed web object sizes.
func (s *Source) Pareto(scale, alpha float64) float64 {
	if scale <= 0 || alpha <= 0 {
		panic("rng: Pareto with non-positive scale or alpha")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return scale / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent
// theta. It uses the rejection-inversion method of Hörmann and Derflinger,
// read off an inversion table that is built once per (n, theta) and shared
// by every sampler in the process (zipftable.go): O(1) per draw, and the
// same draws the iteration makes.
type Zipf struct {
	src              *Source
	tab              *zipfTable // fetched by the first Next; nil above maxTableRanks
	n                uint64
	theta            float64
	oneMinusTheta    float64
	hIntegralX1      float64
	hIntegralNumElem float64
	sVal             float64
}

// NewZipf returns a Zipf sampler over ranks [0, n) with exponent theta.
// theta must be > 0 and != 1; typical web popularity uses theta ≈ 0.8–1.0
// (pass e.g. 0.99 rather than exactly 1).
func NewZipf(src *Source, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if theta <= 0 || theta == 1 {
		panic("rng: NewZipf requires theta > 0 and theta != 1")
	}
	z := &Zipf{src: src, n: n, theta: theta}
	z.oneMinusTheta = 1 - theta
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(float64(n) + 0.5)
	z.sVal = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.theta * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusTheta*logX) * logX
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusTheta
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log(1+x)/x with a series expansion near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes (exp(x)-1)/x with a series expansion near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// table fetches the sampler's inversion table on first use; it stays nil
// above maxTableRanks.
func (z *Zipf) table() {
	if z.tab == nil && z.n <= maxTableRanks {
		z.tab = sharedZipfTable(z)
	}
}

// Next draws the next rank in [0, n). Rank 0 is the most popular.
func (z *Zipf) Next() uint64 {
	z.table()
	for {
		if k, ok := z.draw(z.src.Uint64() >> 11); ok {
			return k
		}
	}
}

// NextFiltered draws like Next but skips, after one Uint64 and one bit
// test each, the draws f (built by z's Filter) proves cannot return a
// kept rank. Its ranks are Next's less some that f's keep rejects, so a
// caller that draws again until keep accepts gets exactly the ranks, and
// consumes exactly the stream, of the same loop over Next.
func (z *Zipf) NextFiltered(f *ZipfFilter) uint64 {
	for {
		if m := z.src.Uint64() >> 11; f.pass(m) {
			if k, ok := z.draw(m); ok {
				return k
			}
		}
	}
}

// draw makes one draw on the 53-bit m (the integer Float64 scales to
// [0, 1)) and returns the accepted rank, or false to draw again. It reads
// z.tab, and runs the iteration when there is no table or m lies in its
// guard band.
func (z *Zipf) draw(m uint64) (uint64, bool) {
	if z.tab != nil {
		if s := z.tab.step(m); s >= 0 {
			if s&1 == 1 {
				return 0, false
			}
			return z.n - 1 - uint64(s)/2, true
		}
	}
	return z.iterate(m)
}

// iterate runs one rejection-inversion iteration on the 53-bit draw m (the
// integer Float64 scales to [0, 1)) and returns the accepted rank, or false
// to draw again.
func (z *Zipf) iterate(m uint64) (uint64, bool) {
	u := z.hIntegralNumElem + float64(m)/(1<<53)*(z.hIntegralX1-z.hIntegralNumElem)
	x := z.hIntegralInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	} else if k > float64(z.n) {
		k = float64(z.n)
	}
	if k-x <= z.sVal || u >= z.hIntegral(k+0.5)-z.h(k) {
		return uint64(k) - 1, true
	}
	return 0, false
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
