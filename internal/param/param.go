// Package param models tunable server parameters the way Active Harmony
// sees them: each parameter is a bounded integer with a default value and a
// step granularity, and a configuration is a point in the integer lattice
// spanned by a parameter space.
//
// The tuning algorithms work in a normalized continuous unit cube; this
// package provides the round-trip between that cube and feasible integer
// configurations (the "nearest integer point" adaptation from §II.B of the
// paper).
package param

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Def describes one tunable parameter.
type Def struct {
	Name    string `json:"name"`
	Min     int64  `json:"min"`
	Max     int64  `json:"max"`
	Default int64  `json:"default"`
	Step    int64  `json:"step"` // lattice granularity, >= 1
	Unit    string `json:"unit,omitempty"`
}

// Validate reports whether the definition is internally consistent.
func (d Def) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("param: empty name")
	}
	if d.Max < d.Min {
		return fmt.Errorf("param %s: max %d < min %d", d.Name, d.Max, d.Min)
	}
	if d.Step < 1 {
		return fmt.Errorf("param %s: step %d < 1", d.Name, d.Step)
	}
	if d.Default < d.Min || d.Default > d.Max {
		return fmt.Errorf("param %s: default %d outside [%d, %d]", d.Name, d.Default, d.Min, d.Max)
	}
	return nil
}

// Clamp rounds v to the parameter's lattice: the value is clamped into
// [Min, Max] and snapped to Min + k*Step for the nearest feasible k.
func (d Def) Clamp(v int64) int64 {
	if v <= d.Min {
		return d.Min
	}
	if v >= d.Max {
		v = d.Max
	}
	offset := v - d.Min
	k := (offset + d.Step/2) / d.Step
	snapped := d.Min + k*d.Step
	if snapped > d.Max {
		snapped -= d.Step
	}
	return snapped
}

// ClampFloat rounds a continuous proposal to the nearest feasible value.
func (d Def) ClampFloat(v float64) int64 {
	if math.IsNaN(v) {
		return d.Default
	}
	if v >= float64(d.Max) {
		return d.Clamp(d.Max)
	}
	if v <= float64(d.Min) {
		return d.Min
	}
	return d.Clamp(int64(math.RoundToEven(v)))
}

// Space is an ordered collection of parameter definitions; it defines the
// search space for one tuning server.
type Space struct {
	defs  []Def
	index map[string]int
}

// NewSpace builds a space from defs, validating each and rejecting
// duplicate names.
func NewSpace(defs ...Def) (*Space, error) {
	s := &Space{defs: append([]Def(nil), defs...), index: make(map[string]int, len(defs))}
	for i, d := range s.defs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[d.Name]; dup {
			return nil, fmt.Errorf("param: duplicate name %q", d.Name)
		}
		s.index[d.Name] = i
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error; for static definitions.
func MustSpace(defs ...Def) *Space {
	s, err := NewSpace(defs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of parameters (the search dimensionality).
func (s *Space) Len() int { return len(s.defs) }

// Def returns the i-th definition.
func (s *Space) Def(i int) Def { return s.defs[i] }

// Defs returns the definitions in order. Callers must not modify them.
func (s *Space) Defs() []Def { return s.defs }

// IndexOf returns the position of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// DefaultConfig returns the configuration with every parameter at its
// default value.
func (s *Space) DefaultConfig() Config {
	c := make(Config, len(s.defs))
	for i, d := range s.defs {
		c[i] = d.Default
	}
	return c
}

// Clamp snaps every coordinate of c onto the feasible lattice, in place,
// and returns c. It panics if the length does not match the space.
func (s *Space) Clamp(c Config) Config {
	s.checkLen(c)
	for i, d := range s.defs {
		c[i] = d.Clamp(c[i])
	}
	return c
}

// Feasible reports whether every coordinate of c lies on the lattice.
func (s *Space) Feasible(c Config) bool {
	if len(c) != len(s.defs) {
		return false
	}
	for i, d := range s.defs {
		v := c[i]
		if v < d.Min || v > d.Max || (v-d.Min)%d.Step != 0 {
			return false
		}
	}
	return true
}

// Normalize maps a configuration into the continuous unit cube [0,1]^k.
// Degenerate parameters (Min == Max) map to 0.
func (s *Space) Normalize(c Config) []float64 {
	s.checkLen(c)
	u := make([]float64, len(c))
	for i, d := range s.defs {
		if d.Max == d.Min {
			u[i] = 0
			continue
		}
		u[i] = float64(c[i]-d.Min) / float64(d.Max-d.Min)
	}
	return u
}

// Denormalize maps a unit-cube point to the nearest feasible configuration,
// clamping coordinates outside [0,1].
func (s *Space) Denormalize(u []float64) Config {
	if len(u) != len(s.defs) {
		panic(fmt.Sprintf("param: point has %d dims, space has %d", len(u), len(s.defs)))
	}
	c := make(Config, len(u))
	for i, d := range s.defs {
		v := u[i]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		c[i] = d.ClampFloat(float64(d.Min) + v*float64(d.Max-d.Min))
	}
	return c
}

func (s *Space) checkLen(c Config) {
	if len(c) != len(s.defs) {
		panic(fmt.Sprintf("param: config has %d values, space has %d", len(c), len(s.defs)))
	}
}

// Concat returns a new space containing the parameters of all the given
// spaces in order, with each parameter name prefixed by the corresponding
// prefix ("prefix.name") so duplicates across servers stay distinct.
func Concat(prefixes []string, spaces []*Space) (*Space, error) {
	if len(prefixes) != len(spaces) {
		return nil, fmt.Errorf("param: %d prefixes for %d spaces", len(prefixes), len(spaces))
	}
	var defs []Def
	for i, sp := range spaces {
		for _, d := range sp.defs {
			d.Name = prefixes[i] + "." + d.Name
			defs = append(defs, d)
		}
	}
	return NewSpace(defs...)
}

// Slice extracts from a concatenated configuration the sub-configuration of
// the i-th constituent space, given the same spaces passed to Concat.
func Slice(c Config, spaces []*Space, i int) Config {
	off := 0
	for j := 0; j < i; j++ {
		off += spaces[j].Len()
	}
	return append(Config(nil), c[off:off+spaces[i].Len()]...)
}

// Config is a point in a parameter space: one value per definition, in
// space order.
type Config []int64

// Clone returns an independent copy.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Equal reports whether two configurations are identical.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key.
func (c Config) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Map renders the configuration as name → value for the given space.
func (c Config) Map(s *Space) map[string]int64 {
	m := make(map[string]int64, len(c))
	for i, d := range s.defs {
		m[d.Name] = c[i]
	}
	return m
}

// MarshalJSON encodes the configuration as a plain JSON array.
func (c Config) MarshalJSON() ([]byte, error) { return json.Marshal([]int64(c)) }

// UnmarshalJSON decodes a plain JSON array.
func (c *Config) UnmarshalJSON(b []byte) error {
	var vs []int64
	if err := json.Unmarshal(b, &vs); err != nil {
		return err
	}
	*c = vs
	return nil
}
