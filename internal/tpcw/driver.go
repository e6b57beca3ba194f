package tpcw

import (
	"webharmony/internal/recycle"
	"webharmony/internal/rng"
	"webharmony/internal/simnet"
	"webharmony/internal/stats"
	"webharmony/internal/webobj"
)

// Site serves complete page requests; the web-cluster simulator implements
// it. done(ok) must fire exactly once; ok=false means the request was shed
// somewhere in the pipeline.
type Site interface {
	Request(pr PageRequest, done func(ok bool))
}

// DriverOptions configures the emulated-browser driver.
type DriverOptions struct {
	Browsers  int // number of emulated browsers (EBs)
	Workload  Workload
	ThinkMean float64 // mean exponential think time, seconds (TPC-W: 7)
	Seed      uint64

	// Sessions switches each browser from i.i.d. Table 1 draws to a
	// per-browser walk of the TPC-W session graph (same steady-state mix,
	// realistic request sequences).
	Sessions bool
}

func (o DriverOptions) withDefaults() DriverOptions {
	if o.Browsers == 0 {
		o.Browsers = 100
	}
	if o.ThinkMean == 0 {
		o.ThinkMean = 7
	}
	return o
}

// Counters accumulates completed-interaction counts for a measurement
// window.
type Counters struct {
	Completed [NumInteractions]uint64
	Browse    uint64 // completed browse-class interactions
	Order     uint64 // completed order-class interactions
	Errors    uint64 // shed/failed interactions
}

// Total returns the total completed interactions.
func (c Counters) Total() uint64 { return c.Browse + c.Order }

// WIPS returns web interactions per second over a window of the given
// duration.
func (c Counters) WIPS(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(c.Total()) / seconds
}

// ErrorRate returns errors / (errors + completed).
func (c Counters) ErrorRate() float64 {
	t := float64(c.Total()) + float64(c.Errors)
	if t == 0 {
		return 0
	}
	return float64(c.Errors) / t
}

// Driver runs the emulated browsers against a Site.
type Driver struct {
	eng      *simnet.Engine
	site     Site
	gen      *PageGen
	opts     DriverOptions
	sampler  *Sampler
	sessions []*SessionSampler // per-browser walks (Sessions mode)
	think    []*rng.Source     // per-browser think-time streams
	browsers []*browser        // per-browser reusable request state
	running  bool
	ctr      Counters
	resp     stats.Sample // response times of completed interactions
}

// browserPool holds released drivers' browsers, each with its image
// buffer; the next driver to start rebinds them (DESIGN.md §10).
var browserPool recycle.Pool[[]*browser]

// maxImages is the most images any interaction's page embeds: the
// capacity of every browser's image buffer, so page generation never
// grows one.
var maxImages = func() int {
	m := 0
	for _, p := range profiles {
		m = max(m, p.Images)
	}
	return m
}()

// browser is one emulated browser's persistent state. Each browser has at
// most one page in flight, so its completion and think-timer callbacks are
// allocated once here and reused for every interaction — the steady-state
// think/request loop schedules zero fresh closures (DESIGN.md §7).
type browser struct {
	d       *Driver
	eb      int
	it      Interaction     // interaction currently in flight
	issued  float64         // sim time the in-flight page was issued
	imgBuf  []webobj.Object // image-slice backing store, maxImages long, reused per page
	doneFn  func(ok bool)   // bound pageDone, passed to Site.Request
	thinkFn func()          // bound browse, scheduled on the think timer
}

// bindBrowsers returns n browsers bound to d: those of bs, a released
// driver's, as far as they go, then new ones whose image buffers are
// carved from one slab. Every browser's state is rewritten before its
// first page, so only the driver and index need rebinding.
func (d *Driver) bindBrowsers(bs []*browser, n int) []*browser {
	bs = bs[:min(len(bs), n)]
	if k := n - len(bs); k > 0 {
		imgs := make([]webobj.Object, k*maxImages)
		for i := 0; i < k; i++ {
			b := &browser{imgBuf: imgs[i*maxImages : i*maxImages : (i+1)*maxImages]}
			b.doneFn = b.pageDone
			b.thinkFn = b.browse
			bs = append(bs, b)
		}
	}
	for i, b := range bs {
		b.d, b.eb = d, i
	}
	return bs
}

// NewDriver creates a driver over the catalog. Browsers are not started
// until Start.
func NewDriver(eng *simnet.Engine, site Site, cat *webobj.Catalog, opts DriverOptions) *Driver {
	opts = opts.withDefaults()
	root := rng.New(opts.Seed ^ 0x7e57ab1e)
	d := &Driver{
		eng:     eng,
		site:    site,
		gen:     NewPageGen(cat, root.Split(100)),
		opts:    opts,
		sampler: NewSampler(opts.Workload, root.Split(200)),
	}
	d.think = make([]*rng.Source, opts.Browsers)
	for i := range d.think {
		d.think[i] = root.Split(uint64(300 + i))
	}
	if opts.Sessions {
		d.sessions = make([]*SessionSampler, opts.Browsers)
		for i := range d.sessions {
			d.sessions[i] = NewSessionSampler(opts.Workload, root.Split(uint64(900000+i)))
		}
	}
	return d
}

// Start launches the emulated browsers; each starts with a random initial
// think offset so arrivals are not synchronized. The browsers are bound on
// the first Start, so a driver that never runs (a lab that only stages
// configurations) takes none from the pool.
func (d *Driver) Start() {
	if d.running {
		return
	}
	d.running = true
	if d.browsers == nil {
		bs, _ := browserPool.Get()
		d.browsers = d.bindBrowsers(bs, d.opts.Browsers)
	}
	f := d.eng.EnterRoot("browser/think")
	defer f.Exit()
	for i := 0; i < d.opts.Browsers; i++ {
		d.eng.Schedule(d.think[i].Uniform(0, d.opts.ThinkMean), d.browsers[i].thinkFn)
	}
}

// Stop halts request issuing: browsers finish their in-flight interaction
// and then go idle. Used when an iteration's cool-down begins.
func (d *Driver) Stop() { d.running = false }

// Running reports whether browsers are issuing requests.
func (d *Driver) Running() bool { return d.running }

// SetWorkload switches the interaction mix (the Figure 5 experiment).
func (d *Driver) SetWorkload(w Workload) {
	d.opts.Workload = w
	d.sampler.SetWorkload(w)
	for _, s := range d.sessions {
		s.SetWorkload(w)
	}
}

// Workload returns the current workload.
func (d *Driver) Workload() Workload { return d.opts.Workload }

// browse runs one emulated browser's think/request loop iteration: draw
// the next interaction, generate the page and issue it with the browser's
// reusable completion callback.
func (b *browser) browse() {
	d := b.d
	if !d.running {
		return
	}
	if d.sessions != nil {
		b.it = d.sessions[b.eb].Next()
	} else {
		b.it = d.sampler.Next()
	}
	pr := d.gen.PageBuf(b.it, b.eb, b.imgBuf)
	b.issued = d.eng.Now()
	d.site.Request(pr, b.doneFn)
}

// pageDone records the in-flight interaction's outcome and schedules the
// next think period.
func (b *browser) pageDone(ok bool) {
	d := b.d
	if ok {
		d.resp.Add(d.eng.Now() - b.issued)
		d.ctr.Completed[b.it]++
		if b.it.Class() == ClassBrowse {
			d.ctr.Browse++
		} else {
			d.ctr.Order++
		}
	} else {
		d.ctr.Errors++
	}
	// Think, then issue the next interaction. The think timer starts a
	// new logical unit of work: without the root reset, each browser's
	// attribution stack would thread through every page it ever loaded.
	f := d.eng.EnterRoot("browser/think")
	defer f.Exit()
	d.eng.Schedule(d.think[b.eb].Exp(d.opts.ThinkMean), b.thinkFn)
}

// Counters returns the accumulated counters.
func (d *Driver) Counters() Counters { return d.ctr }

// ResetCounters zeroes the counters and empties the response-time sample
// (start of a measurement window). The sample keeps the storage warm-up
// grew.
func (d *Driver) ResetCounters() {
	d.ctr = Counters{}
	d.resp.Reset()
}

// ResponseTimes returns the response-time sample of the current window.
// Callers must not retain it across ResetCounters or Release.
func (d *Driver) ResponseTimes() *stats.Sample { return &d.resp }

// Release returns the response-time sample's storage and the browsers to
// their pools once the driver will run no more. The driver must not be
// used afterwards: it drops its think streams, so Start panics.
func (d *Driver) Release() {
	d.resp.Release()
	if d.browsers != nil {
		browserPool.Put(d.browsers)
	}
	d.browsers, d.think = nil, nil
}
