package harmony

import (
	"encoding/json"
	"fmt"

	"webharmony/internal/param"
)

// Snapshot is a serializable image of a tuning session. Because every
// search kernel is deterministic given (options, reported values), the
// snapshot stores only the session's options and history; Load replays the
// history through a fresh kernel and verifies that the proposals match.
// This is how sessions survive a tuning-server restart.
type Snapshot struct {
	Params  []param.Def `json:"params"`
	Options struct {
		Algorithm     string       `json:"algorithm"`
		Seed          uint64       `json:"seed"`
		GuardFactor   float64      `json:"guard_factor,omitempty"`
		Anchor        param.Config `json:"anchor,omitempty"`
		ShiftFactor   float64      `json:"shift_factor,omitempty"`
		ShiftPatience int          `json:"shift_patience,omitempty"`
	} `json:"options"`
	Perf []float64 `json:"perf"` // reported performance, in order
	// Configs are stored for verification: replay must propose the same.
	Configs []param.Config `json:"configs"`
}

// Save captures the session's state.
func (s *Session) Save() (*Snapshot, error) {
	if s.asked {
		return nil, fmt.Errorf("harmony: cannot save with an outstanding proposal")
	}
	snap := &Snapshot{Params: append([]param.Def(nil), s.space.Defs()...)}
	snap.Options.Algorithm = s.opts.Algorithm.String()
	snap.Options.Seed = s.opts.Seed
	snap.Options.GuardFactor = s.opts.GuardFactor
	if s.opts.Anchor != nil {
		snap.Options.Anchor = s.opts.Anchor.Clone()
	}
	snap.Options.ShiftFactor = s.opts.ShiftFactor
	snap.Options.ShiftPatience = s.opts.ShiftPatience
	for _, r := range s.history {
		snap.Perf = append(snap.Perf, r.Perf)
		snap.Configs = append(snap.Configs, r.Config.Clone())
	}
	return snap, nil
}

// MarshalJSON support: Snapshot is a plain struct; this helper writes it.
func (snap *Snapshot) Marshal() ([]byte, error) { return json.MarshalIndent(snap, "", "  ") }

// LoadSnapshot parses a snapshot previously produced by Marshal.
func LoadSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("harmony: bad snapshot: %w", err)
	}
	return &snap, nil
}

// Restore rebuilds a live session from the snapshot by deterministic
// replay. It fails if the replayed proposals diverge from the recorded
// ones (e.g. the snapshot was edited, or the code's search kernel
// changed incompatibly).
func Restore(snap *Snapshot) (*Session, error) {
	space, err := param.NewSpace(snap.Params...)
	if err != nil {
		return nil, fmt.Errorf("harmony: snapshot space: %w", err)
	}
	algo, err := ParseAlgorithm(snap.Options.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("harmony: snapshot: %w", err)
	}
	if len(snap.Perf) != len(snap.Configs) {
		return nil, fmt.Errorf("harmony: snapshot has %d perf values for %d configs",
			len(snap.Perf), len(snap.Configs))
	}
	opts := Options{
		Algorithm:     algo,
		Seed:          snap.Options.Seed,
		GuardFactor:   snap.Options.GuardFactor,
		Anchor:        snap.Options.Anchor,
		ShiftFactor:   snap.Options.ShiftFactor,
		ShiftPatience: snap.Options.ShiftPatience,
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("harmony: snapshot: %w", err)
	}
	sess := NewSession(space, opts)
	for i, perf := range snap.Perf {
		cfg := sess.NextConfig()
		if !cfg.Equal(snap.Configs[i]) {
			return nil, fmt.Errorf("harmony: replay diverged at iteration %d: got %v, snapshot has %v",
				i+1, cfg, snap.Configs[i])
		}
		sess.Report(perf)
	}
	return sess, nil
}
