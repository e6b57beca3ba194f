package simnet

import "testing"

// TestStationAllocs pins the hot submit/step path of the event loop at
// its measured cost of zero allocations per job: completions reuse pooled
// events and the station's svcRecord free list supplies the in-service
// completion state, so nothing is allocated after warm-up. This is the
// loop BenchmarkStationThroughput times — the guard turns the allocation
// half of that win into a regression test that fails fast instead of a
// benchmark number someone has to notice drifting.
func TestStationAllocs(t *testing.T) {
	var e Engine
	st := NewStation(&e, "cpu", 2, 1)
	for i := 0; i < 1000; i++ {
		st.Submit(0.001, nil)
		e.Step()
	}
	if avg := testing.AllocsPerRun(5000, func() {
		st.Submit(0.001, nil)
		e.Step()
	}); avg > 0.5 {
		t.Errorf("station submit+step: %.2f allocs, want 0 (ceiling 0.5)", avg)
	}
}

// TestStationAllocsProfiled is TestStationAllocs with a profile attached
// and the submissions inside an Enter'ed frame: once the stacks are
// interned, extending the submitter's stack by the station's frame and
// recording each dispatch allocate nothing either.
func TestStationAllocsProfiled(t *testing.T) {
	var e Engine
	e.SetProfile(NewProfile())
	st := NewStation(&e, "cpu", 2, 1)
	submit := func() {
		f := e.Enter("req")
		st.Submit(0.001, nil)
		f.Exit()
		e.Step()
	}
	for i := 0; i < 1000; i++ {
		submit()
	}
	if avg := testing.AllocsPerRun(5000, submit); avg > 0.5 {
		t.Errorf("profiled station submit+step: %.2f allocs, want 0 (ceiling 0.5)", avg)
	}
}
