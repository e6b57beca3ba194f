package stats

import (
	"math/rand"
	"testing"
)

func TestLatencyBucketBounds(t *testing.T) {
	// Every value maps to a bucket whose max is >= the value, and bucket
	// indexes are monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 63, 64, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345} {
		idx := latencyBucket(v)
		if idx <= prev && v > 0 {
			// Not strictly increasing (nearby values share buckets) but
			// never decreasing.
			if idx < prev {
				t.Errorf("bucket(%d) = %d < previous %d", v, idx, prev)
			}
		}
		if m := latencyBucketMax(idx); m < v {
			t.Errorf("bucketMax(bucket(%d)) = %d < value", v, m)
		}
		prev = idx
	}
	// Exact range: buckets 0..7 are singletons.
	for v := int64(0); v < 8; v++ {
		if m := latencyBucketMax(latencyBucket(v)); m != v {
			t.Errorf("exact bucket for %d has max %d", v, m)
		}
	}
}

func TestLatencyBucketRelativeError(t *testing.T) {
	// Bucket width is value/8, so the upper bound overshoots by < 12.5%.
	for v := int64(8); v < 1<<22; v = v*7/5 + 1 {
		m := latencyBucketMax(latencyBucket(v))
		if m < v {
			t.Fatalf("bucketMax < value at %d", v)
		}
		if float64(m-v) > float64(v)/8 {
			t.Errorf("bucket overshoot at %d: max %d (err %.1f%%)", v, m, 100*float64(m-v)/float64(v))
		}
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.N() != 0 || h.Mean() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.N() != 100 || h.Sum() != 5050 || h.Max() != 100 {
		t.Fatalf("n=%d sum=%d max=%d", h.N(), h.Sum(), h.Max())
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("mean = %v, want 50.5", m)
	}
	// p50 rank is the 50th observation (value 50); its bucket max may
	// overshoot by < 12.5%.
	p50 := h.Quantile(0.5)
	if p50 < 50 || p50 > 56 {
		t.Errorf("p50 = %d, want in [50,56]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 99 || p99 > 111 {
		t.Errorf("p99 = %d, want in [99,111]", p99)
	}
	if h.Quantile(1.0) != 100 {
		t.Errorf("p100 = %d, want exact max 100", h.Quantile(1.0))
	}
	if h.Quantile(0) != 1 {
		t.Errorf("p0 = %d, want first observation's bucket 1", h.Quantile(0))
	}
}

func TestLatencyHistSingleObservation(t *testing.T) {
	var h LatencyHist
	h.Observe(5)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 5 {
			t.Errorf("Quantile(%v) = %d, want 5", q, got)
		}
	}
	var n LatencyHist
	n.Observe(-3) // clamps to zero
	if n.Quantile(0.5) != 0 || n.Sum() != 0 {
		t.Error("negative observation not clamped to zero")
	}
}

func TestLatencyHistMergeMatchesSequential(t *testing.T) {
	// Partitioning observations across histograms and merging must yield
	// identical quantiles to observing sequentially — the property the
	// worker-count determinism contract rests on.
	rng := rand.New(rand.NewSource(42))
	var whole LatencyHist
	parts := make([]LatencyHist, 4)
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 50000)
		whole.Observe(v)
		parts[i%4].Observe(v)
	}
	var merged LatencyHist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.N() != whole.N() || merged.Sum() != whole.Sum() || merged.Max() != whole.Max() {
		t.Fatalf("merged n/sum/max diverge: %d/%d/%d vs %d/%d/%d",
			merged.N(), merged.Sum(), merged.Max(), whole.N(), whole.Sum(), whole.Max())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if a, b := merged.Quantile(q), whole.Quantile(q); a != b {
			t.Errorf("Quantile(%v): merged %d != sequential %d", q, a, b)
		}
	}
}

func BenchmarkLatencyHistObserve(b *testing.B) {
	var h LatencyHist
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 37 % 1000000)
	}
}
