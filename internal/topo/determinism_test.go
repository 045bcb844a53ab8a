package topo

import (
	"fmt"
	"strings"
	"testing"

	"presto/internal/packet"
)

// fingerprintRouting renders everything shard-vs-serial byte-identity
// depends on — equal-cost next-hop sets and spanning-tree route
// tables — into one canonical string. Map-backed tables
// are rendered by iterating ID-ordered slices (never by ranging the
// maps), so the fingerprint reflects the structures' contents and the
// *slice* orders the fabric consumes them in.
func fingerprintRouting(t *Topology) string {
	var b strings.Builder
	for from := NodeID(0); int(from) < len(t.Nodes); from++ {
		if t.Nodes[from].Kind == KindHost {
			continue
		}
		for _, dst := range t.Hosts {
			fmt.Fprintf(&b, "next %d->%d:%v\n", from, dst, t.NextLinksTo(from, dst))
		}
		for _, dst := range t.Leaves {
			fmt.Fprintf(&b, "next %d->%d:%v\n", from, dst, t.NextLinksTo(from, dst))
		}
	}
	for _, tr := range t.Trees() {
		fmt.Fprintf(&b, "tree %d root %d\n", tr.Index, tr.Root)
		for from := NodeID(0); int(from) < len(t.Nodes); from++ {
			for _, dstLeaf := range t.Leaves {
				if lid, ok := tr.NextLink(from, dstLeaf); ok {
					fmt.Fprintf(&b, "  %d->%d via %d\n", from, dstLeaf, lid)
				}
			}
		}
	}
	return b.String()
}

// TestRoutingDeterminismAcrossRebuilds pins the equal-cost ordering
// audit: NextLinksTo and Trees must produce byte-
// identical results across 100 independent rebuilds of the same
// topology. Any map-range or append-order sensitivity in the builders
// or the routing computations would flip the fingerprint between
// rebuilds and break shard-vs-serial bit-identity.
func TestRoutingDeterminismAcrossRebuilds(t *testing.T) {
	builders := []struct {
		name  string
		build func() *Topology
	}{
		{"threetier", func() *Topology { return ThreeTierClos(4, 2, 2, 2, LinkConfig{}) }},
		{"twotier", func() *Topology { return TwoTierClos(4, 4, 4, 2, LinkConfig{}) }},
		{"single", func() *Topology { return SingleSwitch(8, LinkConfig{}) }},
		{"mesh", func() *Topology { return LeafMesh(4, 2, LinkConfig{}) }},
	}
	for _, bc := range builders {
		name, build := bc.name, bc.build
		want := fingerprintRouting(build())
		for i := 1; i < 100; i++ {
			if got := fingerprintRouting(build()); got != want {
				t.Fatalf("%s: rebuild %d produced a different routing fingerprint", name, i)
			}
		}
	}
}

// TestPodMetadata pins the pod partition the shard map is built from.
func TestPodMetadata(t *testing.T) {
	tt := ThreeTierClos(3, 2, 2, 2, LinkConfig{})
	if tt.NumPods != 3 {
		t.Fatalf("ThreeTierClos NumPods = %d, want 3", tt.NumPods)
	}
	for _, c := range tt.Cores {
		if tt.PodOf(c) != -1 {
			t.Fatalf("core %d has pod %d, want -1", c, tt.PodOf(c))
		}
	}
	// Every non-core node must carry a valid pod, and every link must
	// either stay inside one pod or touch a core: the shard partition
	// relies on inter-pod traffic always crossing the core tier.
	for _, n := range tt.Nodes {
		if n.Kind != KindHost && n.Pod == -1 {
			continue // core
		}
		if n.Pod < 0 || n.Pod >= tt.NumPods {
			t.Fatalf("node %s has pod %d outside [0,%d)", n.Name, n.Pod, tt.NumPods)
		}
	}
	for _, l := range tt.Links {
		pa, pb := tt.PodOf(l.A), tt.PodOf(l.B)
		if pa != -1 && pb != -1 && pa != pb {
			t.Fatalf("link %d joins pod %d to pod %d without crossing a core", l.ID, pa, pb)
		}
	}
	// Hosts inherit their leaf's pod.
	for h, hn := range tt.Hosts {
		if tt.PodOf(hn) != tt.PodOf(tt.LeafOf(packet.HostID(h))) {
			t.Fatalf("host %d pod %d != its leaf's pod", h, tt.PodOf(hn))
		}
	}

	two := TwoTierClos(2, 3, 2, 1, LinkConfig{})
	if two.NumPods != 3 {
		t.Fatalf("TwoTierClos NumPods = %d, want 3 (one per leaf)", two.NumPods)
	}
	for _, s := range two.Spines {
		if two.PodOf(s) != -1 {
			t.Fatalf("2-tier spine %d has pod %d, want -1", s, two.PodOf(s))
		}
	}
	one := SingleSwitch(4, LinkConfig{})
	if one.NumPods != 1 || one.PodOf(one.Leaves[0]) != 0 {
		t.Fatal("SingleSwitch should be one pod")
	}
}

// TestCoreLinkConfig pins that 3-tier core links take the Core* knobs
// (and inherit fabric values when unset).
func TestCoreLinkConfig(t *testing.T) {
	cfg := LinkConfig{CoreBitsPerSec: 40e9, CoreProp: 5000}
	tt := ThreeTierClos(2, 2, 1, 1, cfg)
	coreLinks := 0
	for _, l := range tt.Links {
		aCore := tt.PodOf(l.A) == -1 && tt.Nodes[l.A].Kind == KindSpine
		bCore := tt.PodOf(l.B) == -1 && tt.Nodes[l.B].Kind == KindSpine
		if aCore || bCore {
			coreLinks++
			if l.BitsPerSec != 40e9 || l.Propagation != 5000 {
				t.Fatalf("core link %d: %d bps prop %v, want 40e9/5000ns", l.ID, l.BitsPerSec, l.Propagation)
			}
		}
	}
	if coreLinks != 4 {
		t.Fatalf("found %d core links, want 4", coreLinks)
	}
	def := ThreeTierClos(2, 1, 1, 1, LinkConfig{FabricProp: 2000})
	for _, l := range def.Links {
		if tcore := def.PodOf(l.A) == -1 || def.PodOf(l.B) == -1; tcore && def.Nodes[l.A].Kind != KindHost && def.Nodes[l.B].Kind != KindHost {
			if l.Propagation != 2000 {
				t.Fatalf("core link %d prop %v should inherit FabricProp 2000ns", l.ID, l.Propagation)
			}
		}
	}
}
