package controller

import (
	"fmt"
	"slices"
	"testing"

	"presto/internal/fabric"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// auditInstall is the install-completeness oracle: every label in every
// pushed mapping must reach its destination host by exact-match label
// lookups alone — no no-entry detour, no hop past the tree's own path —
// label lists must follow tree index order, and a mapping must list
// exactly the trees whose path between the two leaves avoids every
// link in down.
func auditInstall(net *fabric.Network, c *Controller, vss []*vswitch.VSwitch, down map[topo.LinkID]bool) error {
	tp := net.Topo
	for _, vs := range vss {
		src := vs.Host
		for d := range tp.Hosts {
			dst := packet.HostID(d)
			srcLeaf, dstLeaf := tp.LeafOf(src), tp.LeafOf(dst)
			macs := vs.Mapping(dst)
			if src == dst || srcLeaf == dstLeaf || tp.SpineAttached(src) || tp.SpineAttached(dst) {
				if len(macs) != 0 {
					return fmt.Errorf("%d->%d needs no labels, got %v", src, dst, macs)
				}
				continue
			}
			var want []int
			paths := map[int][]topo.LinkID{}
			for _, tr := range c.Trees() {
				var path []topo.LinkID
				if _, ok := tr.Walk(tp, srcLeaf, dstLeaf, func(lid topo.LinkID) { path = append(path, lid) }); !ok {
					return fmt.Errorf("tree %d does not connect leaves %d and %d", tr.Index, srcLeaf, dstLeaf)
				}
				paths[tr.Index] = path
				live := true
				for _, lid := range path {
					live = live && !down[lid]
				}
				if live {
					want = append(want, tr.Index)
				}
			}
			var got []int
			for _, m := range macs {
				got = append(got, m.ShadowTree())
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("%d->%d maps trees %v, want %v (down %v)", src, dst, got, want, down)
			}
			for _, label := range macs {
				if label.IsTunnel() != c.cfg.TunnelMode {
					return fmt.Errorf("%d->%d: label %v in the wrong mode", src, dst, label)
				}
				at, hops := srcLeaf, 1
				for {
					if label.IsTunnel() && at == dstLeaf {
						break // the tunnel's terminus forwards on L3
					}
					egress, ok := net.Switch(at).Egress(label)
					if !ok {
						return fmt.Errorf("%d->%d: no entry for %v at %s", src, dst, label, tp.Nodes[at].Name)
					}
					next := tp.Links[egress].Other(at)
					if tp.Nodes[next].Kind == topo.KindHost {
						if next != tp.HostNode(dst) {
							return fmt.Errorf("%d->%d: %v ends at %s", src, dst, label, tp.Nodes[next].Name)
						}
						break
					}
					at = next
					if hops++; hops > len(paths[label.ShadowTree()])+1 {
						return fmt.Errorf("%d->%d: %v leaves its tree path after %d switches", src, dst, label, hops)
					}
				}
				if at != dstLeaf {
					return fmt.Errorf("%d->%d: %v delivered from %s", src, dst, label, tp.Nodes[at].Name)
				}
			}
		}
	}
	return nil
}

// FuzzTreeInstall drives the oracle over fabric shapes and sizes, both
// label modes, and one failed fabric link.
func FuzzTreeInstall(f *testing.F) {
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(kind, uint8(1), uint8(2), uint8(1), uint8(1), false, uint8(0))
		f.Add(kind, uint8(3), uint8(1), uint8(0), uint8(0), true, uint8(7))
	}
	f.Fuzz(func(t *testing.T, kind, roots, leaves, gamma, hostsPer uint8, tunnel bool, fail uint8) {
		a, b := int(roots)%4+1, int(leaves)%3+2
		g, h := int(gamma)%2+1, int(hostsPer)%2+1
		var tp *topo.Topology
		switch kind % 5 {
		case 0:
			tp = topo.TwoTierClos(a, b, h, g, topo.LinkConfig{})
		case 1:
			tp = topo.ThreeTierClos(b, a, g, h, topo.LinkConfig{})
		case 2:
			tp = topo.LeafMesh(b, h, topo.LinkConfig{})
		case 3:
			tp = topo.SingleSwitch(b*h, topo.LinkConfig{})
		default: // the north-south shape: one remote user per spine
			tp = topo.TwoTierClos(a, b, h, g, topo.LinkConfig{})
			for _, s := range tp.Spines {
				tp.AddSpineHost(s, 100e6, sim.Microsecond)
			}
		}
		eng := sim.NewEngine()
		net := fabric.New(eng, tp, fabric.Config{})
		c := New(net, Config{TunnelMode: tunnel})
		var vss []*vswitch.VSwitch
		for i := range tp.Hosts {
			vs := vswitch.New(eng, packet.HostID(i), nullSender{}, vswitch.NewPresto(packet.MaxSegSize))
			vss = append(vss, vs)
			c.RegisterVSwitch(vs)
		}
		c.InstallAll()
		if err := auditInstall(net, c, vss, nil); err != nil {
			t.Fatalf("at install: %v", err)
		}
		var fabricLinks []topo.LinkID
		for _, l := range tp.Links {
			if tp.Nodes[l.A].Kind != topo.KindHost && tp.Nodes[l.B].Kind != topo.KindHost {
				fabricLinks = append(fabricLinks, l.ID)
			}
		}
		if len(fabricLinks) == 0 {
			return
		}
		bad := fabricLinks[int(fail)%len(fabricLinks)]
		net.FailLink(bad)
		c.HandleLinkFailure(bad)
		eng.Run(sim.Second)
		if err := auditInstall(net, c, vss, map[topo.LinkID]bool{bad: true}); err != nil {
			t.Fatalf("after failing link %d: %v", bad, err)
		}
	})
}
