package evalcache

import (
	"bytes"
	"math"
	"testing"

	"webharmony/internal/param"
	"webharmony/internal/websim"
)

// FuzzEvalKey exercises the canonical key encoding's contract: it is
// deterministic, independent of node-map insertion order, and injective
// under single-field mutation — no crafted workload string or float bit
// pattern may make two distinct specs collide.
func FuzzEvalKey(f *testing.F) {
	f.Add(1, 2, 1, 2, 200, 0.5, 800, true, 2.0, 8.0, 1.0, uint64(7), "shopping", int64(133), int64(90))
	f.Add(0, 0, 0, 0, 0, 0.0, 0, false, 0.0, 0.0, 0.0, uint64(0), "", int64(0), int64(0))
	f.Add(3, 1, 4, 1, 5, math.Pi, 9, true, 2.6, 5.3, 5.8, uint64(97), "wl|nodes=1|n0=1:2", int64(-1), int64(1<<40))
	f.Add(1, 1, 1, 1, 1, math.Inf(1), 1, false, math.NaN(), 1e300, 5e-324, ^uint64(0), "a=b|c", int64(7), int64(7))
	f.Fuzz(func(t *testing.T, proxy, app, db, lines, browsers int, think float64,
		scale int, sessions bool, warm, measure, cool float64, seed uint64,
		workload string, v0, v1 int64) {

		spec := func() Spec {
			return Spec{
				ProxyNodes: proxy, AppNodes: app, DBNodes: db, WorkLines: lines,
				Browsers: browsers, ThinkMean: think, Scale: scale, Sessions: sessions,
				Warm: warm, Measure: measure, Cool: cool, Seed: seed,
				Workload: workload,
				Nodes:    map[int]param.Config{0: {v0}, 1: {v1, v0}},
			}
		}
		base := spec().Key()

		// Deterministic: rebuilding the same spec reproduces the key.
		if again := spec().Key(); again.String() != base.String() || again.Hash() != base.Hash() {
			t.Fatalf("key not deterministic:\n%s\n%s", base, again)
		}

		// Insertion-order independent.
		reordered := spec()
		reordered.Nodes = map[int]param.Config{1: {v1, v0}, 0: {v0}}
		if reordered.Key().String() != base.String() {
			t.Fatalf("node insertion order changed the key:\n%s\n%s", base, reordered.Key())
		}

		// Single-field mutations must change the encoding. Floats mutate
		// via nextFloat, which always yields a distinct bit pattern.
		mutants := []struct {
			name string
			mut  func(*Spec)
		}{
			{"proxy", func(s *Spec) { s.ProxyNodes++ }},
			{"app", func(s *Spec) { s.AppNodes++ }},
			{"db", func(s *Spec) { s.DBNodes++ }},
			{"lines", func(s *Spec) { s.WorkLines++ }},
			{"browsers", func(s *Spec) { s.Browsers++ }},
			{"think", func(s *Spec) { s.ThinkMean = nextFloat(s.ThinkMean) }},
			{"scale", func(s *Spec) { s.Scale++ }},
			{"sessions", func(s *Spec) { s.Sessions = !s.Sessions }},
			{"warm", func(s *Spec) { s.Warm = nextFloat(s.Warm) }},
			{"measure", func(s *Spec) { s.Measure = nextFloat(s.Measure) }},
			{"cool", func(s *Spec) { s.Cool = nextFloat(s.Cool) }},
			{"seed", func(s *Spec) { s.Seed++ }},
			{"workload", func(s *Spec) { s.Workload += "|" }},
			{"node-value", func(s *Spec) { s.Nodes[0] = param.Config{v0 + 1} }},
			{"node-extra", func(s *Spec) { s.Nodes[2] = param.Config{v0} }},
			{"node-gone", func(s *Spec) { delete(s.Nodes, 1) }},
		}
		for _, m := range mutants {
			s := spec()
			m.mut(&s)
			if s.Key().String() == base.String() {
				t.Fatalf("mutating %s did not change the key: %s", m.name, base)
			}
		}

		// The workload's length prefix forecloses delimiter forgery: moving
		// the tail of the workload into a node entry (or vice versa) can
		// never reproduce the same canonical string, because the recorded
		// length differs. Spot-check the classic splice.
		spliced := spec()
		spliced.Workload = workload + "|n0=1:2"
		if spliced.Key().String() == base.String() {
			t.Fatalf("delimiter splice collided: %s", base)
		}
	})
}

// nextFloat returns a float guaranteed to differ from v in bit pattern:
// the adjacent representable value toward +Inf, or 0 for NaN and +Inf
// (Nextafter would return them unchanged).
func nextFloat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 1) {
		return 0
	}
	return math.Nextafter(v, math.Inf(1))
}

// FuzzLoadSnapshot pins the contract of the -evalcache FILE reader, which
// parses whatever file it is given: LoadSnapshot never panics, and an
// accepted snapshot is a fixed point of Marshal — its Marshal output loads
// again and re-marshals to the same bytes, so a warm-started run saves
// back exactly what it loaded.
func FuzzLoadSnapshot(f *testing.F) {
	c := New()
	spec := testSpec()
	c.Do(spec.Key(), func() websim.Measurement { return testMeasurement(123.456789012345) })
	spec.Seed++
	c.Do(spec.Key(), func() websim.Measurement {
		return websim.Measurement{RespMean: math.NaN(), RespP90: math.Inf(1), RespP99: math.Inf(-1)}
	})
	saved, err := c.Snapshot().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	for _, seed := range []string{
		`{"version": 1, "entries": []}`,
		`{"version": 1, "entries": null}`,
		`{"version": 1, "entries": [{"key": "k", "measurement": {"wips": "NaN", "resp_p90": "+Inf", "resp_p99": "-Inf"}}]}`,
		`{"version": 1, "entries": [{"key": "k", "measurement": {"wips": "nan", "wips_b": "inf", "wips_o": "-infinity"}}]}`,
		`{"version": 1, "entries": [{"key": "k", "measurement": {"wips": "1e400"}}]}`,
		`{"version": 1, "entries": [{"key": "k", "measurement": {"wips": -0, "line_wips": ["NaN", 1.5]}}]}`,
		`{"version": 1, "entries": [{"key": "k", "measurement": {"wips": "zzz"}}]}`,
		`{"version": 999, "entries": []}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := LoadSnapshot(data)
		if err != nil {
			if snap != nil {
				t.Fatalf("LoadSnapshot returned a snapshot alongside error %v", err)
			}
			return
		}
		first, err := snap.Marshal()
		if err != nil {
			t.Fatalf("accepted snapshot does not marshal: %v", err)
		}
		again, err := LoadSnapshot(first)
		if err != nil {
			t.Fatalf("marshalled snapshot does not load: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("reloaded snapshot does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal changed the bytes:\n%s\n---\n%s", first, second)
		}
	})
}
