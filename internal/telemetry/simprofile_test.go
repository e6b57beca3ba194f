package telemetry

import (
	"strings"
	"testing"

	"webharmony/internal/simnet"
)

// buildProfile records a few stacks onto a fresh engine-backed profile.
func buildProfile(t *testing.T, frames []string) *simnet.Profile {
	t.Helper()
	e := &simnet.Engine{}
	p := simnet.NewProfile()
	e.SetProfile(p)
	for i, name := range frames {
		f := e.EnterRoot(name)
		e.Schedule(float64(i+1)*0.5, func() {})
		f.Exit()
	}
	e.Run()
	return p
}

// TestCollectorMergesSimProfilesInFixedOrder: the merged profile's folded
// bytes must not depend on recorder registration order — only on the
// (replicate, unit) keys — mirroring the trace/metrics contract.
func TestCollectorMergesSimProfilesInFixedOrder(t *testing.T) {
	render := func(order []int) string {
		c := NewCollector()
		units := []struct {
			rep    int
			unit   string
			frames []string
		}{
			{0, "b", []string{"x", "y"}},
			{1, "a", []string{"y", "z"}},
			{0, "a", []string{"x", "z", "z"}},
		}
		for _, i := range order {
			u := units[i]
			r := c.Recorder(u.rep, u.unit)
			r.AttachSimProfile(buildProfile(t, u.frames))
		}
		var sb strings.Builder
		if err := c.WriteSimProfile(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render([]int{0, 1, 2})
	second := render([]int{2, 0, 1})
	if first != second {
		t.Fatalf("merged profile depends on registration order:\n%s\n----\n%s", first, second)
	}
	if first == "" {
		t.Fatal("merged profile is empty")
	}
}

// TestNilRecorderSimProfileSafe: the nil-recorder contract extends to the
// profile hooks.
func TestNilRecorderSimProfileSafe(t *testing.T) {
	var r *Recorder
	r.AttachSimProfile(simnet.NewProfile())
	if r.SimProfile() != nil {
		t.Fatal("nil recorder returned a profile")
	}
}

// TestWriteSimProfileRollup smoke-checks the rollup path through the
// collector.
func TestWriteSimProfileRollup(t *testing.T) {
	c := NewCollector()
	c.Recorder(0, "u").AttachSimProfile(buildProfile(t, []string{"s", "t"}))
	var sb strings.Builder
	if err := c.WriteSimProfileRollup(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "simnet event-loop profile:") {
		t.Fatalf("unexpected rollup: %q", sb.String())
	}
}
