// Package topo describes static network topologies: the 2-tier Clos
// fabrics the paper evaluates on (Figure 3, Figure 4a, Figure 4b), the
// single non-blocking switch used as the Optimal baseline, plus path
// enumeration and disjoint spanning-tree computation (one tree per
// spine switch × parallel link, §3.1).
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
	hostLink  map[packet.HostID]LinkID
	hostLeaf  map[packet.HostID]NodeID
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
// link speed (e.g. 100 Mbps WAN-limited users on the Optimal
// single-switch baseline of Table 2). Returns the new host's ID.
func (t *Topology) AddLeafHost(leaf NodeID, bps int64, prop sim.Time) packet.HostID {
	if t.Nodes[leaf].Kind != KindLeaf {
		panic("topo: AddLeafHost requires a leaf node")
	}
	h := packet.HostID(len(t.Hosts))
	hn := t.addNode(KindHost, fmt.Sprintf("h%d", h), h)
	t.Nodes[hn].Pod = t.Nodes[leaf].Pod
	t.Hosts = append(t.Hosts, hn)
	lid := t.addLink(hn, leaf, bps, prop)
	t.hostLink[h] = lid
	t.hostLeaf[h] = leaf
	return h
}

// AddSpineHost attaches an extra host directly to a spine switch with
// its own link speed — the paper's emulated remote users reachable at
// WAN rates (100 Mbps) through the spines. Returns the new host's ID.
func (t *Topology) AddSpineHost(spine NodeID, bps int64, prop sim.Time) packet.HostID {
	if t.Nodes[spine].Kind != KindSpine {
		panic("topo: AddSpineHost requires a spine node")
	}
	h := packet.HostID(len(t.Hosts))
	hn := t.addNode(KindHost, fmt.Sprintf("h%d", h), h)
	t.Nodes[hn].Remote = true
	t.Nodes[hn].Pod = t.Nodes[spine].Pod
	t.Hosts = append(t.Hosts, hn)
	lid := t.addLink(hn, spine, bps, prop)
	t.hostLink[h] = lid
	t.hostLeaf[h] = spine
	return h
}

// MarkRemote flags host h as a remote user (excluded from server
// workloads). AddSpineHost does this automatically; leaf-attached
// users (the Optimal north-south baseline) need it explicitly.
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
		hostLink:  make(map[packet.HostID]LinkID),
		hostLeaf:  make(map[packet.HostID]NodeID),
		spineLeaf: make(map[[2]NodeID][]LinkID),
	}
}

// TwoTierClos builds a 2-tier Clos (leaf-spine) network with the given
// number of spines, leaves, hosts per leaf, and gamma parallel links
// between every spine-leaf pair. gamma < 1 is treated as 1.
//
// The paper's testbed (Figure 3) is TwoTierClos(4, 4, 4, 1, cfg); the
// scalability benchmark (Figure 4a) varies spines with 2 leaves; the
// oversubscription benchmark (Figure 4b) is 2 spines and 2 leaves.
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
	for li, leaf := range t.Leaves {
		for j := 0; j < hostsPerLeaf; j++ {
			h := packet.HostID(li*hostsPerLeaf + j)
			hn := t.addNode(KindHost, fmt.Sprintf("h%d", h), h)
			t.Nodes[hn].Pod = li
			t.Hosts = append(t.Hosts, hn)
			lid := t.addLink(hn, leaf, cfg.HostBitsPerSec, cfg.HostProp)
			t.hostLink[h] = lid
			t.hostLeaf[h] = leaf
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
	t := newTopology()
	t.Gamma = 1
	t.NumPods = 1
	leaf := t.addNode(KindLeaf, "SW", -1)
	t.Nodes[leaf].Pod = 0
	t.Leaves = append(t.Leaves, leaf)
	for i := 0; i < hosts; i++ {
		h := packet.HostID(i)
		hn := t.addNode(KindHost, fmt.Sprintf("h%d", h), h)
		t.Nodes[hn].Pod = 0
		t.Hosts = append(t.Hosts, hn)
		lid := t.addLink(hn, leaf, cfg.HostBitsPerSec, cfg.HostProp)
		t.hostLink[h] = lid
		t.hostLeaf[h] = leaf
	}
	return t
}

// Tree is one spanning tree of a Clos topology: it routes through a
// single spine and uses exactly one of the γ parallel links to each
// leaf. Trees with distinct (spine, link-choice) pairs are link-disjoint
// in the fabric layer, which is what lets the controller allocate ν·γ
// disjoint trees (§3.1).
type Tree struct {
	Index int
	// Spine is the tree's root: a spine switch (2-tier) or a core
	// switch (3-tier).
	Spine NodeID
	// LeafLink maps each leaf to the link this tree uses between
	// Spine and that leaf (2-tier trees).
	LeafLink map[NodeID]LinkID
	// Route maps (switch → destination leaf → egress link) for rooted
	// trees of deeper topologies (3-tier); nil for 2-tier trees, whose
	// routing LeafLink fully determines. Use NextLink for both.
	Route map[NodeID]map[NodeID]LinkID
}

// Trees computes the disjoint spanning trees of a Clos topology,
// skipping any tree that would use a link in omit (the controller's
// pruning path after a failure). For a single-switch topology it
// returns one degenerate tree.
func (t *Topology) Trees(omit map[LinkID]bool) []Tree {
	if len(t.Spines) == 0 {
		return []Tree{{Index: 0, LeafLink: map[NodeID]LinkID{}}}
	}
	var trees []Tree
	idx := 0
	for _, s := range t.Spines {
		for g := 0; g < t.Gamma; g++ {
			tree := Tree{Index: idx, Spine: s, LeafLink: make(map[NodeID]LinkID, len(t.Leaves))}
			ok := true
			for _, l := range t.Leaves {
				links := t.SpineLeafLinks(s, l)
				if g >= len(links) || omit[links[g]] {
					ok = false
					break
				}
				tree.LeafLink[l] = links[g]
			}
			if ok {
				trees = append(trees, tree)
				idx++
			}
		}
	}
	return trees
}

// Path is a sequence of links from a source host to a destination host.
type Path []LinkID

// Paths enumerates every end-to-end path between two hosts: the access
// link, an uplink to some spine, a downlink to the destination leaf,
// and the destination access link. Hosts on the same leaf have exactly
// one path. This is what the ECMP baseline randomizes over (§4).
func (t *Topology) Paths(src, dst packet.HostID) []Path {
	sl, dl := t.LeafOf(src), t.LeafOf(dst)
	if sl == dl {
		return []Path{{t.HostLink(src), t.HostLink(dst)}}
	}
	var paths []Path
	for _, s := range t.Spines {
		for _, up := range t.SpineLeafLinks(s, sl) {
			for _, down := range t.SpineLeafLinks(s, dl) {
				paths = append(paths, Path{t.HostLink(src), up, down, t.HostLink(dst)})
			}
		}
	}
	return paths
}
