// Package stats provides the statistical accumulators and summaries used
// when measuring simulated web-cluster performance: online mean/variance,
// percentiles, replicate summaries with confidence intervals, and latency
// histograms.
package stats

import (
	"math"
	"sort"

	"webharmony/internal/recycle"
)

// Running accumulates a stream of observations using Welford's online
// algorithm, yielding numerically stable mean and variance. The zero value
// is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations recorded.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 if no observations were recorded.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (n-1 denominator),
// or 0 for fewer than two observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Sample stores raw observations for percentile queries. The zero value
// is ready to use; its storage comes from a pool on the first Add.
type Sample struct {
	data   []float64
	sorted bool
}

// sampleBufs holds released samples' storage, emptied. A simulation
// window's sample grows to thousands of observations, and a finished
// hermetic evaluation hands its storage to the next one (DESIGN.md §10).
var sampleBufs recycle.Pool[[]float64]

// Add records one observation.
func (s *Sample) Add(x float64) {
	if s.data == nil {
		s.data, _ = sampleBufs.Get()
	}
	s.data = append(s.data, x)
	s.sorted = false
}

// Reset empties the sample and keeps its storage for the next
// observations.
func (s *Sample) Reset() {
	s.data = s.data[:0]
	s.sorted = false
}

// Release empties the sample and returns its storage to the pool for the
// next sample's first Add, unless it is more than four times the size
// this sample used: one outlying window must not keep the pool at its
// size.
func (s *Sample) Release() {
	if s.data != nil && cap(s.data) <= 4*len(s.data) {
		sampleBufs.Put(s.data[:0])
	}
	s.data, s.sorted = nil, false
}

// Mean returns the sample mean, or 0 when empty.
func (s *Sample) Mean() float64 {
	if len(s.data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
}

func (s *Sample) sortIfNeeded() {
	if !s.sorted {
		sort.Float64s(s.data)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.data) == 0 {
		return 0
	}
	if p <= 0 {
		s.sortIfNeeded()
		return s.data[0]
	}
	if p >= 100 {
		s.sortIfNeeded()
		return s.data[len(s.data)-1]
	}
	s.sortIfNeeded()
	rank := p / 100 * float64(len(s.data)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.data[lo]
	}
	frac := rank - float64(lo)
	return s.data[lo]*(1-frac) + s.data[hi]*frac
}

// MeanOf returns the arithmetic mean of vs, or 0 when empty.
func MeanOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// StdDevOf returns the sample standard deviation of vs (n-1 denominator).
func StdDevOf(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	m := MeanOf(vs)
	sum := 0.0
	for _, v := range vs {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Summary condenses a set of replicated measurements (one value per
// replicate) into the statistics the experiment reports print: sample
// size, mean, standard deviation and the half-width of a 95% confidence
// interval for the mean.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
}

// Summarize computes the Summary of vs. Non-finite values (NaN, ±Inf) are
// skipped — a replicate whose measurement went wrong must not poison the
// aggregate — so N reports the number of finite observations actually
// summarized. With N == 1 the standard deviation and interval are 0, and
// with N == 0 the Summary is all zeros.
func Summarize(vs []float64) Summary {
	var r Running
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		r.Add(v)
	}
	s := Summary{N: r.N(), Mean: r.Mean(), StdDev: r.StdDev()}
	if s.N >= 2 {
		s.CI95 = TCritical95(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// tCrit95 holds two-sided 95% Student-t critical values for 1…30 degrees
// of freedom (index df-1).
var tCrit95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Beyond 30 degrees of freedom it returns the normal
// value 1.96; df < 1 yields 0 (no interval can be formed).
func TCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.96
}

// FractionAbove returns the fraction of vs strictly greater than threshold.
func FractionAbove(vs []float64, threshold float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := 0
	for _, v := range vs {
		if v > threshold {
			c++
		}
	}
	return float64(c) / float64(len(vs))
}

// Improvement returns the relative improvement of measured over baseline,
// e.g. 0.16 for a 16% gain. A non-positive baseline yields 0.
func Improvement(baseline, measured float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return (measured - baseline) / baseline
}
