package topo

import (
	"fmt"

	"presto/internal/sim"
)

// ThreeTierClos builds a 3-tier (pod-based) Clos: each pod has
// aggPerPod aggregation switches and leafPerPod leaves (every leaf
// wired to every agg in its pod); aggPerPod core switches each connect
// to the same-indexed agg of every pod. Hosts hang off leaves.
//
// The paper's deployments are 2-tier (§3.1: "2-tier Clos networks
// cover the overwhelming majority of enterprise datacenter
// deployments"); this builder is the scalability extension. Spanning
// trees are rooted at cores; trees rooted at different cores are
// disjoint at the agg-core tier and, because core i only touches agg
// i, partition the leaf-agg tier by agg index.
func ThreeTierClos(pods, aggPerPod, leafPerPod, hostsPerLeaf int, cfg LinkConfig) *Topology {
	if pods < 1 || aggPerPod < 1 || leafPerPod < 1 || hostsPerLeaf < 1 {
		panic("topo: ThreeTierClos needs at least one of everything")
	}
	cfg.fill()
	t := newTopology()
	t.Gamma = 1
	t.NumPods = pods

	for c := 0; c < aggPerPod; c++ {
		t.Cores = append(t.Cores, t.addNode(KindSpine, fmt.Sprintf("C%d", c+1), -1))
	}
	for p := 0; p < pods; p++ {
		var podAggs []NodeID
		for a := 0; a < aggPerPod; a++ {
			agg := t.addNode(KindSpine, fmt.Sprintf("A%d.%d", p+1, a+1), -1)
			t.Nodes[agg].Pod = p
			podAggs = append(podAggs, agg)
			t.Aggs = append(t.Aggs, agg)
			// Agg-core links are the only inter-pod edges, so CoreProp
			// is the sharded engine's lookahead on this topology.
			t.addLink(t.Cores[a], agg, cfg.CoreBitsPerSec, cfg.CoreProp)
		}
		for l := 0; l < leafPerPod; l++ {
			leaf := t.addNode(KindLeaf, fmt.Sprintf("L%d.%d", p+1, l+1), -1)
			t.Nodes[leaf].Pod = p
			t.Leaves = append(t.Leaves, leaf)
			for _, agg := range podAggs {
				t.addLink(agg, leaf, cfg.FabricBitsPerSec, cfg.FabricProp)
			}
			for h := 0; h < hostsPerLeaf; h++ {
				host := t.AddLeafHost(leaf, cfg.HostBitsPerSec, cfg.HostProp)
				_ = host
			}
		}
	}
	return t
}

// linkBetween returns the (first) link between two nodes.
func (t *Topology) linkBetween(a, b NodeID) (LinkID, bool) {
	for _, lid := range t.adj[a] {
		if t.Links[lid].Other(a) == b {
			return lid, true
		}
	}
	return 0, false
}

// NextLinksTo returns every link out of `from` that lies on a shortest
// path to the destination node — the equal-cost set hardware ECMP
// hashes over. It is a pure function of the immutable graph (one BFS
// from dst per call); each fabric switch memoizes its own answers.
func (t *Topology) NextLinksTo(from, dst NodeID) []LinkID {
	dist := make([]int, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range t.adj[n] {
			o := t.Links[lid].Other(n)
			// Hosts do not transit traffic: only the destination
			// itself may be a host.
			if t.Nodes[o].Kind == KindHost {
				continue
			}
			if dist[o] < 0 {
				dist[o] = dist[n] + 1
				queue = append(queue, o)
			}
		}
	}
	if dist[from] <= 0 {
		return nil
	}
	var out []LinkID
	for _, lid := range t.adj[from] {
		o := t.Links[lid].Other(from)
		if t.Nodes[o].Kind == KindHost {
			if o == dst {
				return []LinkID{lid}
			}
			continue
		}
		if dist[o] == dist[from]-1 {
			out = append(out, lid)
		}
	}
	return out
}

// RootedTrees computes one spanning tree per core switch of a 3-tier
// topology, per-leaf star trees for a leaf mesh, and falls back to
// Trees for 2-tier/single-switch. Route-table trees map
// (switch → destination leaf → egress link).
func (t *Topology) RootedTrees() []Tree {
	if t.mesh {
		return t.meshTrees()
	}
	if len(t.Cores) == 0 {
		return t.Trees(nil)
	}
	var trees []Tree
	for i, core := range t.Cores {
		tr := Tree{Index: i, Spine: core, Route: make(map[NodeID]map[NodeID]LinkID)}
		// The tree uses agg index i in every pod: core i is wired to
		// exactly those aggs.
		var treeAggs []NodeID
		for _, lid := range t.adj[core] {
			treeAggs = append(treeAggs, t.Links[lid].Other(core))
		}
		aggOfLeaf := make(map[NodeID]NodeID)
		for _, leaf := range t.Leaves {
			for _, agg := range treeAggs {
				if _, ok := t.linkBetween(agg, leaf); ok {
					aggOfLeaf[leaf] = agg
					break
				}
			}
		}
		for _, dstLeaf := range t.Leaves {
			dstAgg := aggOfLeaf[dstLeaf]
			// Core: descend to the destination pod's agg.
			tr.setRoute(t, core, dstLeaf, dstAgg)
			for _, agg := range treeAggs {
				if agg == dstAgg {
					// Destination pod's agg: descend to the leaf.
					tr.setRoute(t, agg, dstLeaf, dstLeaf)
				} else {
					// Other pods' aggs: ascend to the core.
					tr.setRoute(t, agg, dstLeaf, core)
				}
			}
			for _, leaf := range t.Leaves {
				if leaf == dstLeaf {
					continue
				}
				// Every other leaf ascends to its pod's tree agg.
				tr.setRoute(t, leaf, dstLeaf, aggOfLeaf[leaf])
			}
		}
		trees = append(trees, tr)
	}
	return trees
}

// setRoute records (from → dstLeaf) via the direct link from→nexthop.
func (tr *Tree) setRoute(t *Topology, from, dstLeaf, nexthop NodeID) {
	lid, ok := t.linkBetween(from, nexthop)
	if !ok {
		return
	}
	if tr.Route[from] == nil {
		tr.Route[from] = make(map[NodeID]LinkID)
	}
	tr.Route[from][dstLeaf] = lid
}

// NextLink returns the tree's egress at `from` toward dstLeaf, using
// Route when present (3-tier) and LeafLink otherwise (2-tier).
func (tr *Tree) NextLink(from, dstLeaf NodeID) (LinkID, bool) {
	if tr.Route != nil {
		lid, ok := tr.Route[from][dstLeaf]
		return lid, ok
	}
	if from == tr.Spine {
		lid, ok := tr.LeafLink[dstLeaf]
		return lid, ok
	}
	lid, ok := tr.LeafLink[from]
	return lid, ok
}

var _ = sim.Time(0) // keep the sim import for the builder signature
