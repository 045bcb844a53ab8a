// Package topo describes static network topologies: the 2-tier Clos
// fabrics the paper evaluates on (Figure 3, Figure 4a, Figure 4b), the
// single non-blocking switch used as the Optimal baseline, the 3-tier
// and leaf-mesh extensions, and the spanning trees the controller
// labels (§3.1) — one Tree type and one Trees for every shape.
//
// A Topology is immutable once built; dynamic state (queues, failures)
// lives in package fabric.
package topo

import (
	"fmt"

	"presto/internal/packet"
	"presto/internal/sim"
)

// NodeKind distinguishes the three roles in a 2-tier Clos.
type NodeKind int

const (
	KindHost NodeKind = iota
	KindLeaf
	KindSpine
)

func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindLeaf:
		return "leaf"
	case KindSpine:
		return "spine"
	}
	return "?"
}

// NodeID indexes Topology.Nodes.
type NodeID int

// LinkID indexes Topology.Links.
type LinkID int

// Node is a host or switch.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
	// Host is the host identifier when Kind == KindHost.
	Host packet.HostID
	// Remote marks emulated remote users (north-south endpoints, §6)
	// that workload generators must not treat as servers.
	Remote bool
	// Pod is the node's pod index — the unit the sharded engine
	// partitions the fabric by. Hosts, leaves, and (3-tier) aggs belong
	// to their pod; 2-tier topologies treat each leaf plus its hosts as
	// a pod. Pod is -1 for nodes outside any pod (core switches and
	// 2-tier spines), which the shard map distributes round-robin.
	Pod int
}

// Link is a bidirectional cable between two nodes. The fabric simulates
// each direction with an independent queue.
type Link struct {
	ID          LinkID
	A, B        NodeID
	BitsPerSec  int64    // capacity of each direction
	Propagation sim.Time // one-way propagation + switch pipeline latency
}

// Other returns the endpoint of l that is not n.
func (l Link) Other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// LinkConfig sets speeds and delays for a topology build. Defaults
// (applied by fill) match the paper's testbed: 10 Gbps everywhere.
type LinkConfig struct {
	HostBitsPerSec   int64    // host <-> leaf
	FabricBitsPerSec int64    // leaf <-> spine (and agg <-> leaf in 3-tier)
	HostProp         sim.Time // host-leaf one-way latency
	FabricProp       sim.Time // leaf-spine one-way latency
	// Core link parameters apply to the agg <-> core tier of a 3-tier
	// Clos; zero values inherit the fabric settings. CoreProp is the
	// inter-pod latency — the sharded engine's conservative lookahead —
	// so a longer core propagation buys wider parallel windows.
	CoreBitsPerSec int64
	CoreProp       sim.Time
}

// DefaultLinkConfig matches the testbed: 10 Gbps links, sub-2 µs hops.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		HostBitsPerSec:   10e9,
		FabricBitsPerSec: 10e9,
		HostProp:         500 * sim.Nanosecond,
		FabricProp:       1500 * sim.Nanosecond,
	}
}

func (c *LinkConfig) fill() {
	d := DefaultLinkConfig()
	if c.HostBitsPerSec == 0 {
		c.HostBitsPerSec = d.HostBitsPerSec
	}
	if c.FabricBitsPerSec == 0 {
		c.FabricBitsPerSec = d.FabricBitsPerSec
	}
	if c.HostProp == 0 {
		c.HostProp = d.HostProp
	}
	if c.FabricProp == 0 {
		c.FabricProp = d.FabricProp
	}
	if c.CoreBitsPerSec == 0 {
		c.CoreBitsPerSec = c.FabricBitsPerSec
	}
	if c.CoreProp == 0 {
		c.CoreProp = c.FabricProp
	}
}

// Topology is an immutable graph of nodes and links.
type Topology struct {
	Nodes []Node
	Links []Link

	Hosts  []NodeID // all host nodes, indexed by HostID
	Leaves []NodeID
	Spines []NodeID
	// Aggs and Cores are populated by ThreeTierClos (empty for 2-tier
	// topologies, whose Spines play the root role).
	Aggs  []NodeID
	Cores []NodeID

	// Gamma is the number of parallel links between each spine-leaf
	// pair (γ in the paper).
	Gamma int

	// NumPods is the number of pods the topology partitions into (leaf
	// count for 2-tier, pod count for 3-tier, 1 for a single switch) —
	// the natural upper bound on engine shards.
	NumPods int

	// mesh marks a LeafMesh topology: no spine tier, leaves fully
	// meshed, spanning trees are per-leaf stars.
	mesh bool

	adj       map[NodeID][]LinkID
	hostLink  []LinkID               // access link, indexed by HostID
	hostLeaf  []NodeID               // attachment switch, indexed by HostID
	spineLeaf map[[2]NodeID][]LinkID // [spine, leaf] -> γ parallel links

}

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

// HostNode returns the node of host h.
func (t *Topology) HostNode(h packet.HostID) NodeID { return t.Hosts[h] }

// HostLink returns the access link of host h.
func (t *Topology) HostLink(h packet.HostID) LinkID { return t.hostLink[h] }

// LeafOf returns the switch host h attaches to — a leaf for regular
// servers, a spine for "remote user" hosts added with AddSpineHost
// (the north-south experiment, §6).
func (t *Topology) LeafOf(h packet.HostID) NodeID { return t.hostLeaf[h] }

// SpineAttached reports whether host h hangs off a spine switch.
func (t *Topology) SpineAttached(h packet.HostID) bool {
	return t.Nodes[t.hostLeaf[h]].Kind == KindSpine
}

// AddLeafHost attaches an extra host to a leaf switch with a custom
// link speed. Returns the new host's ID.
func (t *Topology) AddLeafHost(leaf NodeID, bps int64, prop sim.Time) packet.HostID {
	if t.Nodes[leaf].Kind != KindLeaf {
		panic("topo: AddLeafHost requires a leaf node")
	}
	return t.attachHost(leaf, bps, prop)
}

// attachHost adds the next host (HostIDs are dense, in creation order)
// on an access link to switch sw, in sw's pod.
func (t *Topology) attachHost(sw NodeID, bps int64, prop sim.Time) packet.HostID {
	h := packet.HostID(len(t.Hosts))
	hn := t.addNode(KindHost, fmt.Sprintf("h%d", h), h)
	t.Nodes[hn].Pod = t.Nodes[sw].Pod
	t.Hosts = append(t.Hosts, hn)
	t.hostLink = append(t.hostLink, t.addLink(hn, sw, bps, prop))
	t.hostLeaf = append(t.hostLeaf, sw)
	return h
}

// AddSpineHost attaches an extra host directly to a spine switch with
// its own link speed — the paper's emulated remote users reachable at
// WAN rates (100 Mbps) through the spines. Returns the new host's ID.
func (t *Topology) AddSpineHost(spine NodeID, bps int64, prop sim.Time) packet.HostID {
	if t.Nodes[spine].Kind != KindSpine {
		panic("topo: AddSpineHost requires a spine node")
	}
	h := t.attachHost(spine, bps, prop)
	t.MarkRemote(h)
	return h
}

// MarkRemote flags host h as a remote user (excluded from server
// workloads). AddSpineHost does this automatically; leaf-attached
// users need it explicitly.
func (t *Topology) MarkRemote(h packet.HostID) { t.Nodes[t.Hosts[h]].Remote = true }

// IsRemote reports whether host h is a marked remote user.
func (t *Topology) IsRemote(h packet.HostID) bool { return t.Nodes[t.Hosts[h]].Remote }

// LinksAt returns the links incident to node n.
func (t *Topology) LinksAt(n NodeID) []LinkID { return t.adj[n] }

// SpineLeafLinks returns the γ parallel links between spine s and leaf l.
func (t *Topology) SpineLeafLinks(s, l NodeID) []LinkID { return t.spineLeaf[[2]NodeID{s, l}] }

// SameLeaf reports whether two hosts share a leaf (same "pod"/rack in
// the paper's workload definitions).
func (t *Topology) SameLeaf(a, b packet.HostID) bool { return t.hostLeaf[a] == t.hostLeaf[b] }

// PodOf returns node n's pod index, or -1 for nodes outside any pod
// (core switches, 2-tier spines).
func (t *Topology) PodOf(n NodeID) int { return t.Nodes[n].Pod }

func (t *Topology) addNode(kind NodeKind, name string, host packet.HostID) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name, Host: host, Pod: -1})
	return id
}

func (t *Topology) addLink(a, b NodeID, bps int64, prop sim.Time) LinkID {
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{ID: id, A: a, B: b, BitsPerSec: bps, Propagation: prop})
	t.adj[a] = append(t.adj[a], id)
	t.adj[b] = append(t.adj[b], id)
	return id
}

func newTopology() *Topology {
	return &Topology{
		adj:       make(map[NodeID][]LinkID),
		spineLeaf: make(map[[2]NodeID][]LinkID),
	}
}

// TwoTierClos builds a 2-tier Clos (leaf-spine) network with the given
// number of spines, leaves, hosts per leaf, and gamma parallel links
// between every spine-leaf pair. gamma < 1 is treated as 1. The
// paper's fabrics are its topology specs (ParseSpec).
func TwoTierClos(spines, leaves, hostsPerLeaf, gamma int, cfg LinkConfig) *Topology {
	if spines < 1 || leaves < 1 || hostsPerLeaf < 1 {
		panic("topo: TwoTierClos needs at least one of everything")
	}
	if gamma < 1 {
		gamma = 1
	}
	cfg.fill()
	t := newTopology()
	t.Gamma = gamma
	t.NumPods = leaves
	for i := 0; i < spines; i++ {
		t.Spines = append(t.Spines, t.addNode(KindSpine, fmt.Sprintf("S%d", i+1), -1))
	}
	for i := 0; i < leaves; i++ {
		leaf := t.addNode(KindLeaf, fmt.Sprintf("L%d", i+1), -1)
		t.Nodes[leaf].Pod = i
		t.Leaves = append(t.Leaves, leaf)
		for _, s := range t.Spines {
			for g := 0; g < gamma; g++ {
				id := t.addLink(s, leaf, cfg.FabricBitsPerSec, cfg.FabricProp)
				key := [2]NodeID{s, leaf}
				t.spineLeaf[key] = append(t.spineLeaf[key], id)
			}
		}
	}
	for _, leaf := range t.Leaves {
		for j := 0; j < hostsPerLeaf; j++ {
			t.attachHost(leaf, cfg.HostBitsPerSec, cfg.HostProp)
		}
	}
	return t
}

// SingleSwitch builds the Optimal baseline: all hosts attached to one
// non-blocking switch (modeled as a single leaf).
func SingleSwitch(hosts int, cfg LinkConfig) *Topology {
	if hosts < 1 {
		panic("topo: SingleSwitch needs at least one host")
	}
	cfg.fill()
	t, sw := newSingleSwitch()
	for i := 0; i < hosts; i++ {
		t.attachHost(sw, cfg.HostBitsPerSec, cfg.HostProp)
	}
	return t
}

// SingleSwitchOf rebuilds t as the Optimal baseline: every host of t,
// in HostID order, on one non-blocking switch, each keeping its own
// access-link speed and propagation delay and its remote mark.
func SingleSwitchOf(t *Topology) *Topology {
	s, sw := newSingleSwitch()
	for h, n := range t.Hosts {
		l := t.Links[t.hostLink[h]]
		s.attachHost(sw, l.BitsPerSec, l.Propagation)
		s.Nodes[s.Hosts[h]].Remote = t.Nodes[n].Remote
	}
	return s
}

// newSingleSwitch returns a topology of one switch (a single leaf, one
// pod) with no hosts yet.
func newSingleSwitch() (*Topology, NodeID) {
	t := newTopology()
	t.Gamma = 1
	t.NumPods = 1
	sw := t.addNode(KindLeaf, "SW", -1)
	t.Nodes[sw].Pod = 0
	t.Leaves = append(t.Leaves, sw)
	return t, sw
}

// Tree is one spanning tree of the fabric (§3.1): the switches it
// spans and, at each of them, the one link it uses toward every
// destination leaf. Every fabric shape yields the same thing; what
// differs is only where the trees hang from (see Trees). Distinct
// 2-tier and 3-tier trees are link-disjoint, which is what lets the
// controller allocate ν·γ disjoint trees.
type Tree struct {
	// Index is the tree's stable position in Trees(); labels carry it.
	Index int
	// Root is the switch the tree hangs from: a spine (2-tier), a core
	// (3-tier), a hub leaf (leaf mesh), or the lone switch.
	Root NodeID
	// route maps switch → destination leaf → egress link. A leaf has no
	// entry toward itself; the lone switch's tree has no entries at all.
	route map[NodeID]map[NodeID]LinkID
}

// Trees computes the fabric's spanning trees, in an order (and with
// Index values) that labels and per-path counters depend on: one per
// spine × parallel link for a 2-tier Clos (spine-major), one per core
// for a 3-tier Clos, one star per hub leaf for a leaf mesh, and a
// single routeless tree for a single switch.
func (t *Topology) Trees() []Tree {
	var trees []Tree
	// grow adds the tree hanging from root; up gives every other switch
	// on it its link toward the root.
	grow := func(root NodeID, up map[NodeID]LinkID) {
		trees = append(trees, t.newTree(len(trees), root, up))
	}
	switch {
	case t.mesh:
		for _, hub := range t.Leaves {
			up := make(map[NodeID]LinkID)
			t.leavesBelow(hub, up)
			grow(hub, up)
		}
	case len(t.Cores) > 0:
		// Core i is wired to agg i of every pod, so its tree uses those
		// aggs and every leaf under them.
		for _, core := range t.Cores {
			up := make(map[NodeID]LinkID)
			for _, lid := range t.adj[core] {
				agg := t.Links[lid].Other(core)
				up[agg] = lid
				t.leavesBelow(agg, up)
			}
			grow(core, up)
		}
	case len(t.Spines) == 0:
		grow(t.Leaves[0], nil)
	default:
		for _, s := range t.Spines {
			for g := 0; g < t.Gamma; g++ {
				// The g-th parallel link by name: searching the
				// adjacency list would find the first one every time.
				up := make(map[NodeID]LinkID, len(t.Leaves))
				for _, l := range t.Leaves {
					up[l] = t.SpineLeafLinks(s, l)[g]
				}
				grow(s, up)
			}
		}
	}
	return trees
}

// leavesBelow records every leaf adjacent to n with its link to n.
func (t *Topology) leavesBelow(n NodeID, up map[NodeID]LinkID) {
	for _, lid := range t.adj[n] {
		if o := t.Links[lid].Other(n); t.Nodes[o].Kind == KindLeaf {
			up[o] = lid
		}
	}
}

// newTree derives the route table of the tree that hangs from root,
// given every other member switch's link toward the root: toward a
// destination leaf, that leaf's ancestors descend along its own climb
// and every other switch climbs.
func (t *Topology) newTree(index int, root NodeID, up map[NodeID]LinkID) Tree {
	tr := Tree{Index: index, Root: root, route: make(map[NodeID]map[NodeID]LinkID, len(up)+1)}
	set := func(at, dst NodeID, lid LinkID) {
		if tr.route[at] == nil {
			tr.route[at] = make(map[NodeID]LinkID, len(t.Leaves))
		}
		tr.route[at][dst] = lid
	}
	for _, dst := range t.Leaves {
		for at, lid := range up {
			if at != dst {
				set(at, dst, lid)
			}
		}
		for at := dst; at != root; {
			lid := up[at]
			at = t.Links[lid].Other(at)
			set(at, dst, lid)
		}
	}
	return tr
}

// NextLink returns the tree's egress at switch from toward dstLeaf.
func (tr Tree) NextLink(from, dstLeaf NodeID) (LinkID, bool) {
	lid, ok := tr.route[from][dstLeaf]
	return lid, ok
}

// Walk walks the tree from srcLeaf to dstLeaf, calling visit (unless
// nil) on each link it crosses, in order, and returns how many it
// crossed; ok is false when the tree does not connect the two (visit
// may have seen a prefix). A leaf reaches itself by the empty walk,
// which is how the lone switch's routeless tree is usable. Walk does
// not allocate.
func (tr Tree) Walk(t *Topology, srcLeaf, dstLeaf NodeID, visit func(LinkID)) (hops int, ok bool) {
	for at := srcLeaf; at != dstLeaf; hops++ {
		lid, ok := tr.NextLink(at, dstLeaf)
		if !ok || hops == len(t.Nodes) {
			return hops, false
		}
		if visit != nil {
			visit(lid)
		}
		at = t.Links[lid].Other(at)
	}
	return hops, true
}
