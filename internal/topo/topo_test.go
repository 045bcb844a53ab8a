package topo

import (
	"reflect"
	"testing"
	"testing/quick"

	"presto/internal/packet"
	"presto/internal/sim"
)

// treePath collects the links tr.Walk crosses from src to dst.
func treePath(tr Tree, tp *Topology, src, dst NodeID) ([]LinkID, bool) {
	var path []LinkID
	_, ok := tr.Walk(tp, src, dst, func(lid LinkID) { path = append(path, lid) })
	return path, ok
}

func TestTwoTierClosShape(t *testing.T) {
	// The paper's testbed: 4 spines, 4 leaves, 4 hosts per leaf.
	tp := TwoTierClos(4, 4, 4, 1, LinkConfig{})
	if got := tp.NumHosts(); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	if len(tp.Spines) != 4 || len(tp.Leaves) != 4 {
		t.Fatalf("spines/leaves = %d/%d", len(tp.Spines), len(tp.Leaves))
	}
	// 4*4 fabric links + 16 host links.
	if len(tp.Links) != 32 {
		t.Fatalf("links = %d, want 32", len(tp.Links))
	}
	// Every leaf has 4 uplinks and 4 host links.
	for _, l := range tp.Leaves {
		if deg := len(tp.LinksAt(l)); deg != 8 {
			t.Errorf("leaf %v degree %d, want 8", l, deg)
		}
	}
	for _, s := range tp.Spines {
		if deg := len(tp.LinksAt(s)); deg != 4 {
			t.Errorf("spine %v degree %d, want 4", s, deg)
		}
	}
}

func TestHostLeafAssignment(t *testing.T) {
	tp := TwoTierClos(2, 2, 4, 1, LinkConfig{})
	// Hosts 0-3 on leaf 0, hosts 4-7 on leaf 1.
	for h := packet.HostID(0); h < 4; h++ {
		if tp.LeafOf(h) != tp.Leaves[0] {
			t.Errorf("host %d on wrong leaf", h)
		}
	}
	for h := packet.HostID(4); h < 8; h++ {
		if tp.LeafOf(h) != tp.Leaves[1] {
			t.Errorf("host %d on wrong leaf", h)
		}
	}
	if !tp.SameLeaf(0, 3) || tp.SameLeaf(0, 4) {
		t.Error("SameLeaf wrong")
	}
}

func TestTreesAreDisjointAndCoverLeaves(t *testing.T) {
	for _, gamma := range []int{1, 2} {
		tp := TwoTierClos(4, 4, 2, gamma, LinkConfig{})
		trees := tp.Trees()
		if want := 4 * gamma; len(trees) != want {
			t.Fatalf("gamma=%d: %d trees, want %d", gamma, len(trees), want)
		}
		used := map[LinkID]int{}
		for i, tr := range trees {
			if tr.Index != i || tr.Root != tp.Spines[i/gamma] {
				t.Fatalf("tree %d: index %d root %d, want spine-major order", i, tr.Index, tr.Root)
			}
			for _, leaf := range tp.Leaves {
				l, ok := tr.NextLink(tr.Root, leaf)
				if !ok {
					t.Fatalf("tree %d does not cover leaf %d", tr.Index, leaf)
				}
				used[l]++
				if tp.Links[l].Other(tr.Root) != leaf {
					t.Fatalf("tree %d leaf link %d does not connect spine to leaf", tr.Index, l)
				}
			}
		}
		// Disjoint: every fabric link belongs to at most one tree.
		for l, n := range used {
			if n > 1 {
				t.Fatalf("gamma=%d: link %d used by %d trees", gamma, l, n)
			}
		}
		if want := 4 * 4 * gamma; len(used) != want {
			t.Fatalf("gamma=%d: trees use %d fabric links, want all %d", gamma, len(used), want)
		}
	}
}

func TestPathsCount(t *testing.T) {
	cases := []struct {
		spines, gamma, want int
	}{
		{2, 1, 2}, {4, 1, 4}, {8, 1, 8}, {2, 2, 4}, // one tree path per spine × parallel link
	}
	for _, c := range cases {
		tp := TwoTierClos(c.spines, 2, 2, c.gamma, LinkConfig{})
		distinct := map[[2]LinkID]bool{}
		for _, tr := range tp.Trees() {
			p, ok := treePath(tr, tp, tp.Leaves[0], tp.Leaves[1])
			if !ok || len(p) != 2 {
				t.Fatalf("spines=%d gamma=%d tree %d: cross-leaf path %v, want 2 links", c.spines, c.gamma, tr.Index, p)
			}
			distinct[[2]LinkID{p[0], p[1]}] = true
		}
		if len(distinct) != c.want {
			t.Errorf("spines=%d gamma=%d: %d distinct tree paths, want %d", c.spines, c.gamma, len(distinct), c.want)
		}
	}
}

func TestPathsSameLeaf(t *testing.T) {
	tp := TwoTierClos(4, 2, 4, 1, LinkConfig{})
	for _, tr := range tp.Trees() {
		if p, ok := treePath(tr, tp, tp.Leaves[0], tp.Leaves[0]); !ok || len(p) != 0 {
			t.Fatalf("tree %d same-leaf path = %v, %v; want empty and usable", tr.Index, p, ok)
		}
	}
}

func TestSingleSwitch(t *testing.T) {
	tp := SingleSwitch(16, LinkConfig{})
	if tp.NumHosts() != 16 || len(tp.Leaves) != 1 || len(tp.Spines) != 0 {
		t.Fatal("single switch shape wrong")
	}
	if len(tp.Links) != 16 {
		t.Fatalf("links = %d, want 16", len(tp.Links))
	}
	trees := tp.Trees()
	if len(trees) != 1 || trees[0].Root != tp.Leaves[0] {
		t.Fatalf("single switch should have 1 routeless tree at the switch, got %v", trees)
	}
	if p, ok := treePath(trees[0], tp, tp.Leaves[0], tp.Leaves[0]); !ok || len(p) != 0 {
		t.Fatalf("routeless tree path = %v, %v; want empty and usable", p, ok)
	}
}

// TestSingleSwitchOf pins the Optimal rebuild to the construction it
// replaced: a SingleSwitch with the fabric's server count, plus one
// leaf-attached, remote-marked 100 Mbps user per spine when the
// fabric carries north-south users. The two must be deeply equal,
// unexported maps included, on every fabric shape.
func TestSingleSwitchOf(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() *Topology
	}{
		{"clos-4-4-4", func() *Topology { return TwoTierClos(4, 4, 4, 1, LinkConfig{}) }},
		{"clos-2-2-4", func() *Topology { return TwoTierClos(2, 2, 4, 1, LinkConfig{}) }},
		{"clos-8-2-8", func() *Topology { return TwoTierClos(8, 2, 8, 1, LinkConfig{}) }},
		{"threetier-4-2-2-2", func() *Topology { return ThreeTierClos(4, 2, 2, 2, LinkConfig{}) }},
		{"mesh-4-4", func() *Topology { return LeafMesh(4, 4, LinkConfig{}) }},
	}
	const remoteBps, remoteProp = 100e6, 5 * sim.Microsecond
	for _, f := range fabrics {
		for _, remotes := range []bool{false, true} {
			fabric := f.build()
			want := SingleSwitch(fabric.NumHosts(), LinkConfig{})
			if remotes {
				for _, s := range fabric.Spines {
					fabric.AddSpineHost(s, remoteBps, remoteProp)
					want.MarkRemote(want.AddLeafHost(want.Leaves[0], remoteBps, remoteProp))
				}
			}
			if got := SingleSwitchOf(fabric); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (remotes %v): SingleSwitchOf differs from SingleSwitch plus leaf-attached remotes", f.name, remotes)
			}
		}
	}
}

func TestDefaultLinkConfigApplied(t *testing.T) {
	tp := TwoTierClos(1, 1, 1, 1, LinkConfig{})
	for _, l := range tp.Links {
		if l.BitsPerSec != 10e9 {
			t.Fatalf("link %d speed %d, want 10e9", l.ID, l.BitsPerSec)
		}
		if l.Propagation <= 0 {
			t.Fatalf("link %d has no propagation delay", l.ID)
		}
	}
}

// Property: on every fabric shape, every tree's path between two
// leaves is a contiguous walk over switch-to-switch links from the
// source leaf to the destination leaf that visits no switch twice.
func TestPathsWellFormedProperty(t *testing.T) {
	prop := func(kind, aRaw, bRaw, gammaRaw, srcRaw, dstRaw uint8) bool {
		a, b := int(aRaw)%4+1, int(bRaw)%3+2
		var tp *Topology
		switch kind % 3 {
		case 0:
			tp = TwoTierClos(a, b, 1, int(gammaRaw)%2+1, LinkConfig{})
		case 1:
			tp = ThreeTierClos(b, a, 2, 1, LinkConfig{})
		default:
			tp = LeafMesh(b, 1, LinkConfig{})
		}
		src := tp.Leaves[int(srcRaw)%len(tp.Leaves)]
		dst := tp.Leaves[int(dstRaw)%len(tp.Leaves)]
		for _, tr := range tp.Trees() {
			p, ok := treePath(tr, tp, src, dst)
			if !ok {
				return false
			}
			at, seen := src, map[NodeID]bool{src: true}
			for _, lid := range p {
				l := tp.Links[lid]
				if l.A != at && l.B != at {
					return false
				}
				at = l.Other(at)
				if seen[at] || tp.Nodes[at].Kind == KindHost {
					return false
				}
				seen[at] = true
			}
			if at != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSpineHost(t *testing.T) {
	tp := TwoTierClos(2, 2, 2, 1, LinkConfig{})
	base := tp.NumHosts()
	h := tp.AddSpineHost(tp.Spines[0], 100e6, 0)
	if int(h) != base {
		t.Fatalf("new host id %d, want %d", h, base)
	}
	if !tp.SpineAttached(h) || tp.SpineAttached(0) {
		t.Fatal("SpineAttached wrong")
	}
	if tp.LeafOf(h) != tp.Spines[0] {
		t.Fatal("remote user not attached to spine")
	}
	if tp.Links[tp.HostLink(h)].BitsPerSec != 100e6 {
		t.Fatal("WAN rate not applied")
	}
}
