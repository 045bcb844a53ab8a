package topo

import "fmt"

// LeafMesh builds a low-diameter two-layer topology: every leaf
// switch is wired directly to every other leaf (a full mesh), hosts
// hang off leaves. There is no spine tier — any pair of leaves is one
// hop apart directly or two hops through an intermediate leaf, the
// setting path-aware schemes like Spritz target.
//
// Spanning trees are stars: tree i routes all traffic through hub
// leaf i (see Trees). With ν leaves that yields ν trees per
// destination — two of them one-hop (the hubs incident to the pair),
// the rest two-hop detours — so weighted multipathing, not tree
// disjointness, is what keeps load off the detours. Each leaf plus
// its hosts is one pod, and inter-pod links are the mesh links, so
// the sharded engine's lookahead is FabricProp.
func LeafMesh(leaves, hostsPerLeaf int, cfg LinkConfig) *Topology {
	if leaves < 2 || hostsPerLeaf < 1 {
		panic("topo: LeafMesh needs >= 2 leaves and >= 1 host per leaf")
	}
	cfg.fill()
	t := newTopology()
	t.Gamma = 1
	t.NumPods = leaves
	t.mesh = true
	for i := 0; i < leaves; i++ {
		leaf := t.addNode(KindLeaf, fmt.Sprintf("M%d", i+1), -1)
		t.Nodes[leaf].Pod = i
		t.Leaves = append(t.Leaves, leaf)
	}
	for i := 0; i < leaves; i++ {
		for j := i + 1; j < leaves; j++ {
			t.addLink(t.Leaves[i], t.Leaves[j], cfg.FabricBitsPerSec, cfg.FabricProp)
		}
	}
	for _, leaf := range t.Leaves {
		for h := 0; h < hostsPerLeaf; h++ {
			t.AddLeafHost(leaf, cfg.HostBitsPerSec, cfg.HostProp)
		}
	}
	return t
}

// Mesh reports whether the topology is a leaf mesh.
func (t *Topology) Mesh() bool { return t.mesh }

// HasFabric reports whether the topology has a multipath fabric tier
// (spines, cores, or a leaf mesh) — i.e. whether cross-leaf traffic
// has path diversity worth installing label mappings for.
func (t *Topology) HasFabric() bool {
	return len(t.Spines) > 0 || len(t.Cores) > 0 || t.mesh
}
