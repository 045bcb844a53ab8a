package topo

import (
	"testing"

	"presto/internal/packet"
)

func TestThreeTierShape(t *testing.T) {
	// 2 pods x (2 aggs + 2 leaves x 2 hosts), 2 cores.
	tp := ThreeTierClos(2, 2, 2, 2, LinkConfig{})
	if len(tp.Cores) != 2 || len(tp.Aggs) != 4 || len(tp.Leaves) != 4 {
		t.Fatalf("cores/aggs/leaves = %d/%d/%d", len(tp.Cores), len(tp.Aggs), len(tp.Leaves))
	}
	if tp.NumHosts() != 8 {
		t.Fatalf("hosts = %d", tp.NumHosts())
	}
	// Links: core-agg 4, agg-leaf 2x2x2=8, host 8 -> 20.
	if len(tp.Links) != 20 {
		t.Fatalf("links = %d, want 20", len(tp.Links))
	}
	// Every leaf connects to both pod aggs plus two hosts.
	for _, l := range tp.Leaves {
		if deg := len(tp.LinksAt(l)); deg != 4 {
			t.Fatalf("leaf degree %d, want 4", deg)
		}
	}
}

func TestTreesCoverAllLeafPairs(t *testing.T) {
	tp := ThreeTierClos(2, 2, 2, 1, LinkConfig{})
	trees := tp.Trees()
	if len(trees) != 2 {
		t.Fatalf("%d trees, want one per core", len(trees))
	}
	for _, tr := range trees {
		for _, src := range tp.Leaves {
			for _, dst := range tp.Leaves {
				if src == dst {
					continue
				}
				// Same pod: up to the tree's agg and down; across pods:
				// through the tree's core.
				want := 4
				if tp.PodOf(src) == tp.PodOf(dst) {
					want = 2
				}
				if p, ok := treePath(tr, tp, src, dst); !ok || len(p) != want {
					t.Fatalf("tree %d path %v->%v = %v, %v; want %d links", tr.Index, src, dst, p, ok, want)
				}
			}
		}
	}
}

func TestTreesDisjointAtCoreTier(t *testing.T) {
	tp := ThreeTierClos(3, 2, 2, 1, LinkConfig{})
	trees := tp.Trees()
	used := map[LinkID]int{}
	for _, tr := range trees {
		seen := map[LinkID]bool{}
		for _, n := range tp.Nodes {
			for _, dst := range tp.Leaves {
				if lid, ok := tr.NextLink(n.ID, dst); ok {
					seen[lid] = true
				}
			}
		}
		for lid := range seen {
			used[lid]++
		}
	}
	// Core-agg links belong to exactly one tree each.
	for lid, n := range used {
		l := tp.Links[lid]
		aIsCore := contains(tp.Cores, l.A)
		bIsCore := contains(tp.Cores, l.B)
		if (aIsCore || bIsCore) && n != 1 {
			t.Fatalf("core link %d shared by %d trees", lid, n)
		}
	}
}

func contains(xs []NodeID, x NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestNextLinksToEqualCostSets(t *testing.T) {
	tp := ThreeTierClos(2, 2, 2, 1, LinkConfig{})
	// Leaf to a leaf in another pod: both pod aggs are equal-cost.
	src, dst := tp.Leaves[0], tp.Leaves[2]
	if got := len(tp.NextLinksTo(src, dst)); got != 2 {
		t.Fatalf("leaf has %d equal-cost uplinks, want 2", got)
	}
	// Agg to a cross-pod leaf: only its own core.
	agg := tp.Aggs[0]
	if got := len(tp.NextLinksTo(agg, dst)); got != 1 {
		t.Fatalf("agg has %d next hops toward a cross-pod leaf, want 1", got)
	}
	// Same-pod leaf from the agg: direct.
	if got := len(tp.NextLinksTo(agg, tp.Leaves[1])); got != 1 {
		t.Fatalf("agg->same-pod leaf candidates = %d", got)
	}
	// Two-tier topologies produce the classic sets too.
	two := TwoTierClos(4, 2, 1, 1, LinkConfig{})
	if got := len(two.NextLinksTo(two.Leaves[0], two.Leaves[1])); got != 4 {
		t.Fatalf("2-tier leaf has %d uplink candidates, want 4", got)
	}
	if host := two.HostNode(0); len(two.NextLinksTo(two.Leaves[1], host)) == 0 {
		t.Fatal("no route toward a host node")
	}
}

func TestThreeTierHostAssignment(t *testing.T) {
	tp := ThreeTierClos(2, 2, 2, 2, LinkConfig{})
	// Hosts fill leaves in order: 0,1 on leaf0; 2,3 on leaf1; ...
	for h := packet.HostID(0); h < 8; h++ {
		want := tp.Leaves[int(h)/2]
		if tp.LeafOf(h) != want {
			t.Fatalf("host %d on %v, want %v", h, tp.LeafOf(h), want)
		}
		if tp.SpineAttached(h) || tp.IsRemote(h) {
			t.Fatalf("host %d misclassified", h)
		}
	}
	if !tp.SameLeaf(0, 1) || tp.SameLeaf(1, 2) {
		t.Fatal("SameLeaf wrong on 3-tier")
	}
}
