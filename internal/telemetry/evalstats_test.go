package telemetry

import (
	"strings"
	"testing"
)

func TestWriteEvalStats(t *testing.T) {
	var b strings.Builder
	s := EvalStats{Lookups: 68, Hits: 22, Misses: 46, Entries: 46, Bytes: 25354}
	if err := WriteEvalStats(&b, s); err != nil {
		t.Fatal(err)
	}
	want := "evalcache lookups=68 hits=22 misses=46 entries=46 bytes=25354 hit_rate=0.3235\n"
	if b.String() != want {
		t.Errorf("WriteEvalStats = %q, want %q", b.String(), want)
	}
}

func TestEvalStatsHitRate(t *testing.T) {
	if got := (EvalStats{}).HitRate(); got != 0 {
		t.Errorf("zero-lookup HitRate = %v, want 0", got)
	}
	if got := (EvalStats{Lookups: 4, Hits: 3}).HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}
