package websim

import (
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/rng"
)

// refPick is the router before the routing table: filter the tier's nodes
// down to the live ones, then to the browser's work line (all live nodes
// when the line has none), and rotate round-robin. It returns nil when the
// tier has no live node.
func refPick(s *System, t cluster.Tier, eb int, rr *uint64) *cluster.Node {
	var nodes []*cluster.Node
	for _, n := range s.Cluster.TierNodes(t) {
		if !s.failed[n.ID()] {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	if s.opts.WorkLines > 0 {
		line := eb % s.opts.WorkLines
		var lineNodes []*cluster.Node
		for i, n := range nodes {
			if i%s.opts.WorkLines == line {
				lineNodes = append(lineNodes, n)
			}
		}
		if len(lineNodes) > 0 {
			nodes = lineNodes
		}
	}
	*rr++
	return nodes[int(*rr)%len(nodes)]
}

// refServer returns the server refPick's node runs for tier t, as the
// router before the table looked it up; nil for no node.
func refServer(s *System, t cluster.Tier, n *cluster.Node) any {
	if n == nil {
		return nil
	}
	switch t {
	case cluster.TierProxy:
		return s.proxies[n.ID()]
	case cluster.TierApp:
		return s.apps[n.ID()]
	default:
		return s.dbs[n.ID()]
	}
}

// TestRoutingTableMatchesFilter applies random failures, recoveries, node
// moves and restarts to 3/3/3 systems with and without work lines, and
// after each one checks a run of picks in every tier, for browsers on
// every line, against the filtering router: the same server, and the same
// round-robin counter, every time.
func TestRoutingTableMatchesFilter(t *testing.T) {
	tiers := cluster.Tiers()
	for _, lines := range []int{0, 2} {
		for seed := uint64(1); seed <= 4; seed++ {
			sys := New(Options{ProxyNodes: 3, AppNodes: 3, DBNodes: 3, Scale: 200, Seed: seed, WorkLines: lines})
			src := rng.New(seed)
			nodes := len(sys.Cluster.Nodes())
			for op := 0; op < 200; op++ {
				id := src.Intn(nodes)
				switch src.Intn(4) {
				case 0:
					sys.FailNode(id)
				case 1:
					sys.RecoverNode(id)
				case 2:
					if from := sys.Cluster.Node(id).Tier(); sys.Cluster.TierSize(from) > 1 {
						sys.MoveNode(id, tiers[src.Intn(len(tiers))], nil)
					}
				case 3:
					sys.Restart()
				}
				for i := 0; i < 12; i++ {
					eb := src.Intn(8)
					for ti, tier := range tiers {
						rr := [3]*uint64{&sys.rr.proxy, &sys.rr.app, &sys.rr.db}[ti]
						wantRR := *rr
						want := refServer(sys, tier, refPick(sys, tier, eb, &wantRR))
						var got any
						switch tier {
						case cluster.TierProxy:
							if p := sys.pickProxy(eb); p != nil {
								got = p
							}
						case cluster.TierApp:
							if a := sys.pickApp(eb); a != nil {
								got = a
							}
						default:
							if d := sys.pickDB(eb); d != nil {
								got = d
							}
						}
						if got != want || *rr != wantRR {
							t.Fatalf("lines %d seed %d op %d, %v pick for browser %d: server %v (counter %d), filtering router %v (counter %d)",
								lines, seed, op, tier, eb, got, *rr, want, wantRR)
						}
					}
				}
			}
		}
	}
}
