package topo

import (
	"testing"

	"presto/internal/packet"
)

func TestLeafMeshShape(t *testing.T) {
	tp := LeafMesh(4, 3, LinkConfig{})
	if got := len(tp.Leaves); got != 4 {
		t.Fatalf("%d leaves, want 4", got)
	}
	if tp.NumHosts() != 12 {
		t.Fatalf("%d hosts, want 12", tp.NumHosts())
	}
	if !tp.Mesh() || !tp.HasFabric() {
		t.Error("mesh topology not flagged as mesh/fabric")
	}
	if tp.NumPods != 4 {
		t.Errorf("NumPods = %d, want one pod per leaf", tp.NumPods)
	}
	// Full mesh: C(4,2)=6 inter-leaf links plus 12 host links.
	fabric := 0
	for _, l := range tp.Links {
		if tp.Nodes[l.A].Kind == KindLeaf && tp.Nodes[l.B].Kind == KindLeaf {
			fabric++
		}
	}
	if fabric != 6 {
		t.Errorf("%d inter-leaf links, want 6", fabric)
	}
	// Hosts are assigned to leaves in order.
	for h := 0; h < 12; h++ {
		want := tp.Leaves[h/3]
		if tp.LeafOf(packet.HostID(h)) != want {
			t.Errorf("host %d on leaf %v, want %v", h, tp.LeafOf(packet.HostID(h)), want)
		}
	}
}

func TestLeafMeshPanicsOnDegenerate(t *testing.T) {
	for _, bad := range [][2]int{{1, 2}, {0, 1}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LeafMesh(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			LeafMesh(bad[0], bad[1], LinkConfig{})
		}()
	}
}

// TestMeshTreesAreStars checks the star-tree structure: one tree per
// leaf, every leaf pair routed, hub trees one hop, others two.
func TestMeshTreesAreStars(t *testing.T) {
	tp := LeafMesh(4, 2, LinkConfig{})
	trees := tp.Trees()
	if len(trees) != 4 {
		t.Fatalf("%d trees, want one per leaf", len(trees))
	}
	for i, tr := range trees {
		if tr.Root != tp.Leaves[i] {
			t.Errorf("tree %d hub %v, want leaf %v", i, tr.Root, tp.Leaves[i])
		}
		for _, src := range tp.Leaves {
			for _, dst := range tp.Leaves {
				if src == dst {
					continue
				}
				want := 2
				if src == tr.Root || dst == tr.Root {
					want = 1
				}
				if p, ok := treePath(tr, tp, src, dst); !ok || len(p) != want {
					t.Errorf("tree %d path %v->%v = %v, %v; want %d hops", i, src, dst, p, ok, want)
				}
			}
		}
	}
}

// TestMeshPathsPerPair: every cross-leaf pair sees all ν trees as
// usable labels (no tree omits any pair), giving the controller ν-way
// multipathing to weight.
func TestMeshTreesRouteEveryPair(t *testing.T) {
	tp := LeafMesh(5, 1, LinkConfig{})
	trees := tp.Trees()
	if len(trees) != 5 {
		t.Fatalf("%d trees, want 5", len(trees))
	}
	for _, tr := range trees {
		for _, src := range tp.Leaves {
			for _, dst := range tp.Leaves {
				if src == dst {
					continue
				}
				if _, ok := tr.NextLink(src, dst); !ok {
					t.Fatalf("tree %d misses %v->%v", tr.Index, src, dst)
				}
			}
		}
	}
}
