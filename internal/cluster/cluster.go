// Package cluster models the machines of the web cluster: each node has a
// dual-core CPU, a disk, a network interface and 1 GB of memory, matching
// the paper's testbed (Table 2). Nodes belong to tiers (proxy, application,
// database) and can be reassigned between tiers — the mechanism behind the
// automatic reconfiguration experiments of §IV.
package cluster

import (
	"fmt"

	"webharmony/internal/simnet"
)

// Tier identifies a functional tier of the web service.
type Tier int

const (
	// TierProxy is the presentation tier (Squid-like caches).
	TierProxy Tier = iota
	// TierApp is the middleware tier (Tomcat-like application servers).
	TierApp
	// TierDB is the backend tier (MySQL-like database servers).
	TierDB
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierProxy:
		return "proxy"
	case TierApp:
		return "app"
	case TierDB:
		return "db"
	default:
		return "unknown"
	}
}

// Tiers lists all tiers in pipeline order.
func Tiers() []Tier { return []Tier{TierProxy, TierApp, TierDB} }

// Resource identifies a monitored node resource (§IV: CPU load, memory
// usage, network bandwidth and disk I/O).
type Resource int

const (
	// ResCPU is processor utilization.
	ResCPU Resource = iota
	// ResMemory is memory usage relative to capacity.
	ResMemory
	// ResNet is network-interface utilization.
	ResNet
	// ResDisk is disk utilization.
	ResDisk
	numResources
)

// NumResources is the number of monitored resources per node.
const NumResources = int(numResources)

// String returns the resource name.
func (r Resource) String() string {
	switch r {
	case ResCPU:
		return "cpu"
	case ResMemory:
		return "memory"
	case ResNet:
		return "net"
	case ResDisk:
		return "disk"
	default:
		return "unknown"
	}
}

// Span attribution sites: the per-request span layer (simnet's SpanBuf)
// records which resource each segment of a request's timeline was spent
// at, as an opaque uint8. This is the cluster-wide vocabulary for those
// sites — tier resources (assigned to node stations by tier, updated when
// a node moves tiers) plus the tier servers' pools and the inter-tier
// hops. Site 0 is simnet's reserved "unattributed" site.
const (
	SpanSiteProxyCPU uint8 = iota + 1
	SpanSiteProxyDisk
	SpanSiteProxyNIC
	SpanSiteAppCPU
	SpanSiteAppDisk
	SpanSiteAppNIC
	SpanSiteAppHTTPPool // Tomcat HTTP connector accept queue / processors
	SpanSiteAppAJPPool  // Tomcat AJP servlet-worker pool
	SpanSiteDBCPU
	SpanSiteDBDisk
	SpanSiteDBNIC
	SpanSiteDBConnPool   // MySQL max_connections listener
	SpanSiteDBThreadPool // MySQL thread_concurrency gate
	SpanSiteXfer         // inter-tier LAN hop
	SpanSiteExt          // external services (TPC-W payment gateway)
	numSpanSites
)

// NumSpanSites is the number of defined span sites.
const NumSpanSites = int(numSpanSites)

// spanSiteNames indexes site → exported name, in site order.
var spanSiteNames = [NumSpanSites]string{
	"other",
	"proxy.cpu", "proxy.disk", "proxy.nic",
	"app.cpu", "app.disk", "app.nic", "app.http", "app.ajp",
	"db.cpu", "db.disk", "db.nic", "db.conns", "db.threads",
	"xfer", "ext",
}

// SpanSiteName returns the site's exported name ("proxy.cpu", "xfer", ...).
func SpanSiteName(site uint8) string {
	if int(site) >= NumSpanSites {
		return "unknown"
	}
	return spanSiteNames[site]
}

// Span attribution groups: sites rolled up to the granularity bottleneck
// reports rank — the three tiers, the network, external services and the
// unattributed residual.
const (
	SpanGroupProxy uint8 = iota
	SpanGroupApp
	SpanGroupDB
	SpanGroupNet
	SpanGroupExt
	SpanGroupOther
	numSpanGroups
)

// NumSpanGroups is the number of span attribution groups.
const NumSpanGroups = int(numSpanGroups)

// spanSiteGroups indexes site → group, in site order.
var spanSiteGroups = [NumSpanSites]uint8{
	SpanGroupOther,
	SpanGroupProxy, SpanGroupProxy, SpanGroupProxy,
	SpanGroupApp, SpanGroupApp, SpanGroupApp, SpanGroupApp, SpanGroupApp,
	SpanGroupDB, SpanGroupDB, SpanGroupDB, SpanGroupDB, SpanGroupDB,
	SpanGroupNet, SpanGroupExt,
}

// SpanSiteGroup returns the attribution group a site rolls up to.
func SpanSiteGroup(site uint8) uint8 {
	if int(site) >= NumSpanSites {
		return SpanGroupOther
	}
	return spanSiteGroups[site]
}

// spanGroupNames indexes group → exported name, in group order.
var spanGroupNames = [NumSpanGroups]string{"proxy", "app", "db", "net", "ext", "other"}

// SpanGroupName returns the group's exported name.
func SpanGroupName(g uint8) string {
	if int(g) >= NumSpanGroups {
		return "unknown"
	}
	return spanGroupNames[g]
}

// Hardware describes a node's physical capacities.
type Hardware struct {
	Cores       int     // CPU cores (paper: dual processors)
	CPUSpeed    float64 // relative speed multiplier, 1.0 = reference
	MemoryBytes int64   // RAM (paper: 1 GB)
	DiskRate    float64 // sequential bytes/second for service-time math
	NetRate     float64 // NIC bytes/second (paper: 100 Mb/s)
}

// DefaultHardware returns the paper's machine: dual 1.67 GHz Athlon,
// 1 GB RAM, 100 Mb/s Ethernet, commodity IDE disk.
func DefaultHardware() Hardware {
	return Hardware{
		Cores:       2,
		CPUSpeed:    1.0,
		MemoryBytes: 1 << 30,
		DiskRate:    30 << 20,         // 30 MB/s
		NetRate:     12.5 * (1 << 20), // 100 Mb/s = 12.5 MB/s
	}
}

// Node is one machine of the cluster.
type Node struct {
	id   int
	name string
	hw   Hardware
	tier Tier

	cpu  *simnet.Station
	disk *simnet.Station
	nic  *simnet.Station

	memUsed int64
	eng     *simnet.Engine
}

// NewNode creates a node with the given hardware assigned to tier.
func NewNode(eng *simnet.Engine, id int, tier Tier, hw Hardware) *Node {
	if hw.Cores <= 0 || hw.CPUSpeed <= 0 || hw.MemoryBytes <= 0 || hw.DiskRate <= 0 || hw.NetRate <= 0 {
		panic("cluster: invalid hardware")
	}
	name := fmt.Sprintf("node%d", id)
	n := &Node{
		id:   id,
		name: name,
		hw:   hw,
		tier: tier,
		cpu:  simnet.NewStation(eng, name+".cpu", hw.Cores, hw.CPUSpeed),
		disk: simnet.NewStation(eng, name+".disk", 1, 1.0),
		nic:  simnet.NewStation(eng, name+".nic", 1, 1.0),
		eng:  eng,
	}
	n.applySpanSites()
	return n
}

// applySpanSites points the node's stations at the span sites of its
// current tier, so latency attribution follows reconfiguration moves.
func (n *Node) applySpanSites() {
	var cpu, disk, nic uint8
	switch n.tier {
	case TierProxy:
		cpu, disk, nic = SpanSiteProxyCPU, SpanSiteProxyDisk, SpanSiteProxyNIC
	case TierApp:
		cpu, disk, nic = SpanSiteAppCPU, SpanSiteAppDisk, SpanSiteAppNIC
	case TierDB:
		cpu, disk, nic = SpanSiteDBCPU, SpanSiteDBDisk, SpanSiteDBNIC
	}
	n.cpu.SetSpanSite(cpu)
	n.disk.SetSpanSite(disk)
	n.nic.SetSpanSite(nic)
}

// ID returns the node's identifier.
func (n *Node) ID() int { return n.id }

// Name returns the node's diagnostic name.
func (n *Node) Name() string { return n.name }

// Tier returns the node's current tier.
func (n *Node) Tier() Tier { return n.tier }

// SetTier reassigns the node to another tier (the reconfiguration move),
// re-pointing its stations' span sites so attribution follows the move.
// The caller is responsible for draining or migrating in-flight work.
func (n *Node) SetTier(t Tier) {
	n.tier = t
	n.applySpanSites()
}

// CPU returns the node's CPU station. Service demands are in seconds of
// reference-speed compute.
func (n *Node) CPU() *simnet.Station { return n.cpu }

// Disk returns the node's disk station.
func (n *Node) Disk() *simnet.Station { return n.disk }

// NIC returns the node's network station.
func (n *Node) NIC() *simnet.Station { return n.nic }

// DiskDemand converts a byte count to seconds of disk service.
func (n *Node) DiskDemand(bytes int64) float64 {
	const seekTime = 0.004 // 4 ms average seek+rotate
	return seekTime + float64(bytes)/n.hw.DiskRate
}

// NetDemand converts a byte count to seconds of NIC service.
func (n *Node) NetDemand(bytes int64) float64 {
	return float64(bytes) / n.hw.NetRate
}

// SetMemUsed records the node's current memory footprint and applies the
// thrashing penalty: when the footprint exceeds physical memory, CPU and
// disk slow down smoothly (paging steals cycles and disk bandwidth).
func (n *Node) SetMemUsed(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	n.memUsed = bytes
	slow := n.Slowdown()
	n.cpu.SetSpeed(n.hw.CPUSpeed / slow)
	n.disk.SetSpeed(1.0 / slow)
}

// Slowdown returns the current thrashing multiplier (1 = no pressure).
// Overcommit by fraction f costs 1 + 12f + 40f²: mild at first, then steep,
// which is how real paging behaves.
func (n *Node) Slowdown() float64 {
	over := float64(n.memUsed-n.hw.MemoryBytes) / float64(n.hw.MemoryBytes)
	if over <= 0 {
		return 1
	}
	return 1 + 12*over + 40*over*over
}

// MemUtilization returns memory usage relative to capacity, clamped to 1.
func (n *Node) MemUtilization() float64 {
	u := float64(n.memUsed) / float64(n.hw.MemoryBytes)
	if u > 1 {
		return 1
	}
	return u
}

// UtilSnapshot captures the busy-time counters needed to compute
// utilizations over a window.
type UtilSnapshot struct {
	at   float64
	cpu  float64
	disk float64
	nic  float64
}

// Snapshot records the node's counters at the current simulated time.
func (n *Node) Snapshot() UtilSnapshot {
	return UtilSnapshot{
		at:   n.eng.Now(),
		cpu:  n.cpu.BusyTime(),
		disk: n.disk.BusyTime(),
		nic:  n.nic.BusyTime(),
	}
}

// Utilization returns the per-resource utilizations accumulated since the
// snapshot, indexed by Resource. Memory utilization is instantaneous.
func (n *Node) Utilization(s UtilSnapshot) [NumResources]float64 {
	var u [NumResources]float64
	u[ResCPU] = n.cpu.Utilization(s.cpu, s.at)
	u[ResDisk] = n.disk.Utilization(s.disk, s.at)
	u[ResNet] = n.nic.Utilization(s.nic, s.at)
	u[ResMemory] = n.MemUtilization()
	return u
}

// Cluster is the collection of nodes.
type Cluster struct {
	nodes []*Node

	// byTier holds the backing arrays TierNodes reuses across calls, so
	// the request router's per-request tier picks allocate nothing.
	byTier [3][]*Node
}

// NodeIDs returns the node IDs New assigns to each tier of a cluster with
// the given tier sizes, indexed by Tier: IDs are dense from 0 in pipeline
// order, proxies first. It is the one place IDs are assigned, so code that
// only plans configurations can name a cluster's nodes without building it.
func NodeIDs(proxyN, appN, dbN int) [][]int {
	if proxyN < 1 || appN < 1 || dbN < 1 {
		panic("cluster: each tier needs at least one node")
	}
	ids := make([][]int, len(Tiers()))
	next := 0
	for t, n := range []int{proxyN, appN, dbN} {
		for i := 0; i < n; i++ {
			ids[t] = append(ids[t], next)
			next++
		}
	}
	return ids
}

// New creates a cluster of nodes with the given tier sizes, numbered as
// NodeIDs numbers them.
func New(eng *simnet.Engine, hw Hardware, proxyN, appN, dbN int) *Cluster {
	c := &Cluster{}
	for t, ids := range NodeIDs(proxyN, appN, dbN) {
		for _, id := range ids {
			c.nodes = append(c.nodes, NewNode(eng, id, Tier(t), hw))
		}
	}
	return c
}

// Nodes returns all nodes. Callers must not modify the slice.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node {
	for _, n := range c.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// TierNodes returns the nodes currently serving tier t, in ID order. The
// returned slice's backing array is reused by the next TierNodes call for
// the same tier: callers must not modify it or retain it across tier
// reassignments.
func (c *Cluster) TierNodes(t Tier) []*Node {
	out := c.byTier[t][:0]
	for _, n := range c.nodes {
		if n.tier == t {
			out = append(out, n)
		}
	}
	c.byTier[t] = out
	return out
}

// TierSize returns the number of nodes in tier t (M(t) in the paper).
func (c *Cluster) TierSize(t Tier) int { return len(c.TierNodes(t)) }

// Layout describes the cluster as "proxy/app/db" counts.
func (c *Cluster) Layout() string {
	return fmt.Sprintf("%d/%d/%d",
		c.TierSize(TierProxy), c.TierSize(TierApp), c.TierSize(TierDB))
}
