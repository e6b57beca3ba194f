package simnet

import (
	"bytes"
	"reflect"
	"testing"
)

// attrSeen is what one deferred callback observed of the engine's current
// attribution context.
type attrSeen struct {
	at    float64
	stack string
	span  *SpanBuf
}

// attrRun is the outcome of one run of the two-request scenario.
type attrRun struct {
	folded string
	segs   map[string][]SpanSeg
	seen   map[string]attrSeen // callback name → observed context
	bufs   map[string]*SpanBuf // request name → its span buffer
}

// runTwoRequests drives two requests, A and B, through a one-server
// station and a one-token pool so that each waits on the other:
//
//	t=0  B submits 2s of service (starts at once).
//	t=0  A takes the token, submits 1s of service and queues behind B.
//	t=2  B's service completes, which starts A's queued job; B then asks
//	     for the token A holds and waits.
//	t=3  A's service completes; A releases the token, which grants B, and
//	     B submits 1s of service.
//	t=4  B's second service completes; B releases the token.
//
// A is served by B's completion and B is granted by A's release, so every
// deferred callback is started from the other request's event. profile and
// spans switch the two halves of the attribution context on independently.
func runTwoRequests(t *testing.T, profile, spans bool) attrRun {
	t.Helper()
	e := &Engine{}
	var p *Profile
	if profile {
		p = NewProfile()
		e.SetProfile(p)
	}
	st := NewStation(e, "st", 1, 1)
	st.SetSpanSite(1)
	pool := NewTokenPool(e, "pool", 1, -1)
	pool.SetSpanSite(2)

	run := attrRun{seen: map[string]attrSeen{}, bufs: map[string]*SpanBuf{}}
	observe := func(name string) {
		run.seen[name] = attrSeen{at: e.Now(), stack: stackPath(e, e.cur.stack), span: e.CurrentSpan()}
	}
	begin := func(name string) Frame {
		if spans {
			b := &SpanBuf{}
			b.Begin(e.NowTicks())
			run.bufs[name] = b
			e.SetSpan(b)
		}
		return e.EnterRoot(name)
	}

	e.Schedule(0, func() { // request B
		f := begin("B")
		defer f.Exit()
		st.Submit(2, func() {
			observe("B/svc1")
			pool.Acquire(func() {
				observe("B/grant")
				st.Submit(1, func() {
					observe("B/svc2")
					pool.Release()
				})
			}, nil)
		})
	})
	e.Schedule(0, func() { // request A
		f := begin("A")
		defer f.Exit()
		pool.Acquire(func() {
			st.Submit(1, func() {
				observe("A/svc")
				pool.Release()
			})
		}, nil)
	})
	e.Run()

	if profile {
		var buf bytes.Buffer
		if err := p.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		run.folded = buf.String()
	}
	if spans {
		run.segs = map[string][]SpanSeg{}
		for name, b := range run.bufs {
			run.segs[name] = append([]SpanSeg(nil), b.Segs...)
		}
	}
	return run
}

// TestAttrProfileAndSpansTogether: with the profiler and spans both on,
// each half of the attribution context comes out exactly as it does when
// it runs alone, and every deferred callback — started from the other
// request's event — runs under its own submitter's stack and span.
func TestAttrProfileAndSpansTogether(t *testing.T) {
	both := runTwoRequests(t, true, true)
	profOnly := runTwoRequests(t, true, false)
	spanOnly := runTwoRequests(t, false, true)

	if both.folded != profOnly.folded {
		t.Errorf("folded stacks with spans on:\n%s\nprofile-only run:\n%s", both.folded, profOnly.folded)
	}
	if !reflect.DeepEqual(both.segs, spanOnly.segs) {
		t.Errorf("span segments with profile on %+v, span-only run %+v", both.segs, spanOnly.segs)
	}
	wantSegs := map[string][]SpanSeg{
		"A": {{Site: 1, Kind: SpanQueue, Dur: 2e6}, {Site: 1, Kind: SpanService, Dur: 1e6}},
		"B": {{Site: 1, Kind: SpanService, Dur: 2e6}, {Site: 2, Kind: SpanQueue, Dur: 1e6}, {Site: 1, Kind: SpanService, Dur: 1e6}},
	}
	if !reflect.DeepEqual(both.segs, wantSegs) {
		t.Errorf("span segments %+v, want %+v", both.segs, wantSegs)
	}

	want := map[string]attrSeen{
		"A/svc":   {at: 3, stack: "A;st/svc", span: both.bufs["A"]},
		"B/svc1":  {at: 2, stack: "B;st/svc", span: both.bufs["B"]},
		"B/grant": {at: 3, stack: "B;st/svc;pool/grant", span: both.bufs["B"]},
		"B/svc2":  {at: 4, stack: "B;st/svc;pool/grant;st/svc", span: both.bufs["B"]},
	}
	if !reflect.DeepEqual(both.seen, want) {
		t.Errorf("callbacks saw %+v, want %+v", both.seen, want)
	}
	// Each half observed alone matches the combined run's half.
	for name, w := range want {
		if got := profOnly.seen[name]; got.stack != w.stack || got.span != nil {
			t.Errorf("%s in profile-only run saw %+v, want stack %q and no span", name, got, w.stack)
		}
		if got := spanOnly.seen[name]; got.stack != "" || got.span != spanOnly.bufs[name[:1]] {
			t.Errorf("%s in span-only run saw %+v, want its own span and no stack", name, got)
		}
	}
}
