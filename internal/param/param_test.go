package param

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"webharmony/internal/rng"
)

func def(name string, min, max, dflt, step int64) Def {
	return Def{Name: name, Min: min, Max: max, Default: dflt, Step: step}
}

func TestDefValidate(t *testing.T) {
	good := def("x", 0, 10, 5, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid def rejected: %v", err)
	}
	bad := []Def{
		def("", 0, 10, 5, 1),
		def("x", 10, 0, 5, 1),
		def("x", 0, 10, 5, 0),
		def("x", 0, 10, 11, 1),
		def("x", 0, 10, -1, 1),
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad def %d accepted", i)
		}
	}
}

func TestDefClamp(t *testing.T) {
	d := def("x", 10, 100, 10, 5)
	cases := []struct{ in, want int64 }{
		{5, 10}, {10, 10}, {12, 10}, {13, 15}, {14, 15},
		{100, 100}, {101, 100}, {99, 100}, {97, 95}, {1000, 100},
	}
	for _, c := range cases {
		if got := d.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDefClampStepNotDividingRange(t *testing.T) {
	// Range 0..10 step 4: feasible {0,4,8}; 10 should snap to 8 not 12.
	d := def("x", 0, 10, 0, 4)
	if got := d.Clamp(10); got != 8 {
		t.Fatalf("Clamp(10) = %d, want 8", got)
	}
	if got := d.Clamp(9); got != 8 {
		t.Fatalf("Clamp(9) = %d, want 8", got)
	}
}

func TestDefClampFloat(t *testing.T) {
	d := def("x", 0, 100, 50, 1)
	if got := d.ClampFloat(math.NaN()); got != 50 {
		t.Fatalf("ClampFloat(NaN) = %d, want default 50", got)
	}
	if got := d.ClampFloat(math.Inf(1)); got != 100 {
		t.Fatalf("ClampFloat(+Inf) = %d, want 100", got)
	}
	if got := d.ClampFloat(math.Inf(-1)); got != 0 {
		t.Fatalf("ClampFloat(-Inf) = %d, want 0", got)
	}
	if got := d.ClampFloat(49.7); got != 50 {
		t.Fatalf("ClampFloat(49.7) = %d, want 50", got)
	}
}

func TestNewSpaceRejectsDuplicates(t *testing.T) {
	_, err := NewSpace(def("a", 0, 1, 0, 1), def("a", 0, 1, 0, 1))
	if err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestSpaceDefaults(t *testing.T) {
	s := MustSpace(def("a", 0, 10, 3, 1), def("b", 5, 50, 20, 5))
	c := s.DefaultConfig()
	if c[0] != 3 || c[1] != 20 {
		t.Fatalf("DefaultConfig = %v", c)
	}
	if !s.Feasible(c) {
		t.Fatal("default config not feasible")
	}
	if s.Len() != 2 {
		t.Fatal("Len wrong")
	}
	if s.IndexOf("b") != 1 || s.IndexOf("zz") != -1 {
		t.Fatal("IndexOf wrong")
	}
	if s.Def(0).Name != "a" || s.Def(1).Name != "b" {
		t.Fatalf("Defs = %v", s.Defs())
	}
}

func TestFeasible(t *testing.T) {
	s := MustSpace(def("a", 0, 10, 0, 2))
	if s.Feasible(Config{3}) {
		t.Fatal("off-lattice value accepted")
	}
	if s.Feasible(Config{12}) {
		t.Fatal("out-of-range value accepted")
	}
	if s.Feasible(Config{2, 4}) {
		t.Fatal("wrong-length config accepted")
	}
	if !s.Feasible(Config{4}) {
		t.Fatal("feasible value rejected")
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	s := MustSpace(def("a", 10, 110, 10, 10), def("b", 0, 7, 0, 7))
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c := Config{
			s.Def(0).Clamp(int64(10 + src.Intn(101))),
			s.Def(1).Clamp(int64(src.Intn(8))),
		}
		u := s.Normalize(c)
		back := s.Denormalize(u)
		return back.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDenormalizeClampsCube(t *testing.T) {
	s := MustSpace(def("a", 0, 100, 50, 1))
	if got := s.Denormalize([]float64{-3})[0]; got != 0 {
		t.Fatalf("Denormalize(-3) = %d, want 0", got)
	}
	if got := s.Denormalize([]float64{9})[0]; got != 100 {
		t.Fatalf("Denormalize(9) = %d, want 100", got)
	}
}

func TestDenormalizeAlwaysFeasible(t *testing.T) {
	s := MustSpace(
		def("a", 10, 113, 10, 7),
		def("b", -50, 50, 0, 3),
		def("c", 0, 1, 0, 1),
	)
	f := func(x, y, z float64) bool {
		c := s.Denormalize([]float64{x, y, z})
		return s.Feasible(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateParam(t *testing.T) {
	s := MustSpace(def("fixed", 5, 5, 5, 1))
	u := s.Normalize(Config{5})
	if u[0] != 0 {
		t.Fatalf("Normalize degenerate = %v", u[0])
	}
	if got := s.Denormalize([]float64{0.7})[0]; got != 5 {
		t.Fatalf("Denormalize degenerate = %d", got)
	}
}

func TestClampConfigInPlace(t *testing.T) {
	s := MustSpace(def("a", 0, 10, 0, 2), def("b", 0, 100, 0, 1))
	c := Config{37, -5}
	s.Clamp(c)
	if c[0] != 10 || c[1] != 0 {
		t.Fatalf("Clamp = %v", c)
	}
	if !s.Feasible(c) {
		t.Fatal("clamped config not feasible")
	}
}

func TestConfigCloneEqual(t *testing.T) {
	c := Config{1, 2, 3}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d[0] = 9
	if c.Equal(d) || c[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if c.Equal(Config{1, 2}) {
		t.Fatal("length mismatch considered equal")
	}
}

func TestConfigKey(t *testing.T) {
	if got := (Config{1, -2, 3}).Key(); got != "1,-2,3" {
		t.Fatalf("Key = %q", got)
	}
	if got := (Config{}).Key(); got != "" {
		t.Fatalf("empty Key = %q", got)
	}
}

func TestConfigMapAndFromMap(t *testing.T) {
	s := MustSpace(def("a", 0, 10, 3, 1), def("b", 0, 10, 4, 1))
	m := Config{7, 8}.Map(s)
	if m["a"] != 7 || m["b"] != 8 {
		t.Fatalf("Map = %v", m)
	}
	c, err := FromMap(s, map[string]int64{"b": 9})
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != 3 || c[1] != 9 {
		t.Fatalf("FromMap = %v", c)
	}
	if _, err := FromMap(s, map[string]int64{"zz": 1}); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := FromMap(s, map[string]int64{"a": 99}); err == nil {
		t.Fatal("infeasible value accepted")
	}
}

func TestConcatAndSlice(t *testing.T) {
	s1 := MustSpace(def("x", 0, 10, 1, 1))
	s2 := MustSpace(def("x", 0, 20, 2, 1), def("y", 0, 30, 3, 1))
	cat, err := Concat([]string{"p1", "p2"}, []*Space{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 3 {
		t.Fatalf("concat Len = %d", cat.Len())
	}
	if cat.IndexOf("p2.y") != 2 {
		t.Fatalf("prefixed name missing: %v", cat.Defs())
	}
	c := Config{11, 12, 13}
	sub := Slice(c, []*Space{s1, s2}, 1)
	if len(sub) != 2 || sub[0] != 12 || sub[1] != 13 {
		t.Fatalf("Slice = %v", sub)
	}
	// Slice copies, not aliases.
	sub[0] = 99
	if c[1] == 99 {
		t.Fatal("Slice aliases source")
	}
}

func TestConcatMismatch(t *testing.T) {
	if _, err := Concat([]string{"a"}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	c := Config{1, 2, 3}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1,2,3]" {
		t.Fatalf("marshal = %s", b)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Fatal("round trip mismatch")
	}
}

func TestNormalizePanicsOnLengthMismatch(t *testing.T) {
	s := MustSpace(def("a", 0, 10, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	s.Normalize(Config{1, 2})
}
