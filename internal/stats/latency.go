package stats

import "math/bits"

// LatencyHist is a fixed-size log-linear histogram for non-negative integer
// latencies (the span layer's microsecond ticks). Values 0..7 get exact
// buckets; above that each power-of-two octave is split into 8 sub-buckets,
// so quantile estimates are exact below 8 and within 1/8 of the value
// (≈3% at the bucket's upper bound) everywhere else — and, critically for
// the telemetry determinism contract, Quantile depends only on the bucket
// counts, so merged histograms report byte-identical percentiles no matter
// how the observations were partitioned across workers.
//
// The counts array is fixed-size so the zero value is ready to use and the
// type can be embedded by value in pooled records and large tables without
// per-cell allocation.
type LatencyHist struct {
	counts [latencyBuckets]uint32
	n      int64
	sum    int64
	max    int64
}

// latencyBuckets covers the full non-negative int63 range: 8 exact buckets
// plus 8 sub-buckets for each of octaves 3..62.
const latencyBuckets = 8 + 8*60

// latencyBucket maps a value to its bucket index.
func latencyBucket(v int64) int {
	if v < 8 {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // octave: floor(log2 v), >= 3
	return 8 + (o-3)*8 + int((v>>(o-3))&7)
}

// latencyBucketMax returns the largest value mapping to bucket idx — the
// bound Quantile reports, chosen over the lower bound so reported
// percentiles never understate the observed latency.
func latencyBucketMax(idx int) int64 {
	if idx < 8 {
		return int64(idx)
	}
	o := (idx-8)/8 + 3
	sub := int64((idx - 8) % 8)
	// Bucket spans [base + sub*step, base + (sub+1)*step - 1] where
	// base = 2^o and step = 2^(o-3).
	return 1<<o + (sub+1)<<(o-3) - 1
}

// Observe records one latency. Negative values clamp to zero.
func (h *LatencyHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[latencyBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// N returns the number of observations.
func (h *LatencyHist) N() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *LatencyHist) Sum() int64 { return h.sum }

// Max returns the largest observation, or 0 if empty.
func (h *LatencyHist) Max() int64 { return h.max }

// Mean returns the exact mean of all observations, or 0 if empty.
func (h *LatencyHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the upper bound of the bucket holding the q-th quantile
// observation (0 <= q <= 1), or 0 if the histogram is empty. The rank
// convention is ceil(q*n) with a floor of 1, so Quantile(0.5) of a single
// observation returns that observation's bucket.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			m := latencyBucketMax(i)
			if m > h.max {
				// The top occupied bucket's bound can overshoot the
				// true maximum; never report beyond it.
				m = h.max
			}
			return m
		}
	}
	return h.max
}

// Merge folds o's observations into h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
