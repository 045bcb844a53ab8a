package topo

import "fmt"

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
				t.AddLeafHost(leaf, cfg.HostBitsPerSec, cfg.HostProp)
			}
		}
	}
	return t
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
