package telemetry

import (
	"webharmony/internal/cluster"
	"webharmony/internal/websim"
)

// Sampler periodically samples a simulated web cluster into a Recorder,
// one Sample per tier per interval, driven by the simulated clock (the
// same scheme monitor.Timeline uses for per-node utilization). The sampler
// only reads simulation state: its events shift the engine's sequence
// numbers uniformly without reordering any simulation event relative to
// another, so an instrumented run produces the same WIPS as a bare one.
//
// Utilizations are interval means from cluster.UtilSnapshot deltas; queue
// depths and pool occupancy are instantaneous gauges; the proxy hit ratio
// covers the interval's lookups, tolerating the counter resets a server
// restart causes (each tuning iteration rebuilds the servers).
type Sampler struct {
	sys      *websim.System
	rec      *Recorder
	interval float64

	snaps   map[int]cluster.UtilSnapshot
	prev    map[int]proxyCounters // per-node cache counters at the last sample
	running bool
}

type proxyCounters struct {
	hits    uint64
	lookups uint64
}

// NewSampler creates a sampler recording every interval simulated seconds.
// Start must be called to begin.
func NewSampler(sys *websim.System, rec *Recorder, interval float64) *Sampler {
	if interval <= 0 {
		panic("telemetry: sampler interval must be positive")
	}
	return &Sampler{
		sys: sys, rec: rec, interval: interval,
		snaps: make(map[int]cluster.UtilSnapshot),
		prev:  make(map[int]proxyCounters),
	}
}

// Start begins sampling; each sample covers the interval since the
// previous one.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	for _, n := range s.sys.Cluster.Nodes() {
		s.snaps[n.ID()] = n.Snapshot()
	}
	s.schedule()
}

func (s *Sampler) schedule() {
	// Sampling events belong to the telemetry layer, not to whatever
	// request context happened to be live when the previous tick fired.
	f := s.sys.Eng.EnterRoot("telemetry/sample")
	s.sys.Eng.Schedule(s.interval, func() {
		s.sample()
		s.schedule()
	})
	f.Exit()
}

func (s *Sampler) sample() {
	now := s.sys.Eng.Now()
	for _, tier := range cluster.Tiers() {
		nodes := s.sys.Cluster.TierNodes(tier)
		if len(nodes) == 0 {
			continue
		}
		smp := Sample{T: now, Tier: tier.String(), Nodes: len(nodes)}
		var hits, lookups uint64
		for _, n := range nodes {
			if snap, ok := s.snaps[n.ID()]; ok {
				u := n.Utilization(snap)
				smp.CPU += u[cluster.ResCPU]
				smp.Memory += u[cluster.ResMemory]
				smp.Net += u[cluster.ResNet]
				smp.Disk += u[cluster.ResDisk]
			}
			s.snaps[n.ID()] = n.Snapshot()
			smp.Queue += n.CPU().QueueLen() + n.Disk().QueueLen() + n.NIC().QueueLen()

			switch tier {
			case cluster.TierProxy:
				if st, ok := s.sys.ProxyStats(n.ID()); ok {
					cur := proxyCounters{
						hits:    st.HitsMem + st.HitsDisk,
						lookups: st.HitsMem + st.HitsDisk + st.Misses,
					}
					p := s.prev[n.ID()]
					dh, dl := cur.hits-p.hits, cur.lookups-p.lookups
					if cur.lookups < p.lookups || cur.hits < p.hits {
						// The server restarted since the last sample and
						// its counters reset; count from zero.
						dh, dl = cur.hits, cur.lookups
					}
					hits += dh
					lookups += dl
					s.prev[n.ID()] = cur
				}
			case cluster.TierApp:
				if a, ok := s.sys.AppServer(n.ID()); ok {
					hb, ab := a.ThreadsInUse()
					smp.PoolBusy += hb + ab
					hq, aq := a.QueueDepths()
					smp.PoolWait += hq + aq
				}
			case cluster.TierDB:
				if d, ok := s.sys.DBServer(n.ID()); ok {
					busy, waiting, _ := d.PoolOccupancy()
					smp.PoolBusy += busy
					smp.PoolWait += waiting
				}
			}
		}
		f := float64(len(nodes))
		smp.CPU /= f
		smp.Memory /= f
		smp.Net /= f
		smp.Disk /= f
		if lookups > 0 {
			smp.HitRatio = float64(hits) / float64(lookups)
		}
		s.rec.Sample(smp)
	}
}
