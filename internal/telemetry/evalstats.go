package telemetry

import (
	"fmt"
	"io"
)

// EvalStats is the evaluation-memoization counter set a run reports via
// `webtune -evalstats`. It is field-compatible with evalcache.Stats so
// the CLI converts with a plain type conversion; telemetry keeps its own
// copy of the type rather than importing the cache, because the
// observability layer reports on the run — it never participates in it.
type EvalStats struct {
	Lookups uint64
	Hits    uint64
	Misses  uint64
	Entries uint64
	Bytes   uint64
}

// HitRate returns Hits/Lookups, or 0 before the first lookup.
func (s EvalStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// WriteEvalStats writes the counters as a fixed-layout, byte-stable
// report. All counts are deterministic at any worker count (see
// internal/evalcache), so two runs of the same experiment produce
// identical reports.
func WriteEvalStats(w io.Writer, s EvalStats) error {
	_, err := fmt.Fprintf(w,
		"evalcache lookups=%d hits=%d misses=%d entries=%d bytes=%d hit_rate=%.4f\n",
		s.Lookups, s.Hits, s.Misses, s.Entries, s.Bytes, s.HitRate())
	return err
}
