package controller

import (
	"testing"

	"presto/internal/fabric"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

type nullSender struct{}

func (nullSender) SendSegment(*packet.Segment) {}

func rig(t *testing.T, spines, leaves, hostsPer int) (*sim.Engine, *fabric.Network, *Controller, map[packet.HostID]*vswitch.VSwitch) {
	t.Helper()
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(spines, leaves, hostsPer, 1, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	c := New(net, Config{})
	vss := make(map[packet.HostID]*vswitch.VSwitch)
	for i := 0; i < tp.NumHosts(); i++ {
		h := packet.HostID(i)
		vs := vswitch.New(eng, h, nullSender{}, vswitch.NewPresto(packet.MaxSegSize))
		vss[h] = vs
		c.RegisterVSwitch(vs)
	}
	return eng, net, c, vss
}

func TestInstallAllPushesMappings(t *testing.T) {
	_, _, c, vss := rig(t, 4, 4, 4)
	c.InstallAll()
	if len(c.Trees()) != 4 {
		t.Fatalf("%d trees", len(c.Trees()))
	}
	// Cross-leaf destination: 4 labels (one per tree).
	macs := vss[0].Mapping(12)
	if len(macs) != 4 {
		t.Fatalf("host0->host12 has %d labels, want 4", len(macs))
	}
	for i, m := range macs {
		if !m.IsShadow() || m.Host() != 12 || m.ShadowTree() != i {
			t.Fatalf("label %d = %v", i, m)
		}
	}
	// Same-leaf destination: no labels.
	if got := vss[0].Mapping(1); len(got) != 0 {
		t.Fatalf("same-leaf mapping = %v, want none", got)
	}
}

func TestInstallAllInstallsSwitchLabels(t *testing.T) {
	_, net, c, _ := rig(t, 4, 4, 4)
	c.InstallAll()
	// Each leaf holds one entry per (host, tree): 16*4 = 64.
	for _, leaf := range net.Topo.Leaves {
		if got := net.Switch(leaf).LabelCount(); got != 64 {
			t.Fatalf("leaf label count = %d, want 64", got)
		}
	}
	// Each spine holds entries for its own tree only: 16.
	for _, s := range net.Topo.Spines {
		if got := net.Switch(s).LabelCount(); got != 16 {
			t.Fatalf("spine label count = %d, want 16", got)
		}
	}
}

func TestEndToEndDeliveryOnAllTrees(t *testing.T) {
	eng, net, c, _ := rig(t, 4, 4, 1)
	c.InstallAll()
	got := 0
	net.AttachHost(3, handlerFunc(func(p *packet.Packet) { got++ }))
	for _, tr := range c.Trees() {
		p := &packet.Packet{
			SrcMAC:  packet.HostMAC(0),
			DstMAC:  packet.ShadowMAC(3, tr.Index),
			Flow:    packet.FlowKey{Src: packet.Addr{Host: 0, Port: 1}, Dst: packet.Addr{Host: 3, Port: 2}},
			Payload: 100,
		}
		net.SendFromHost(0, p)
	}
	eng.RunAll()
	if got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
}

type handlerFunc func(*packet.Packet)

func (f handlerFunc) HandlePacket(p *packet.Packet) { f(p) }

func TestFailurePrunesAffectedMappings(t *testing.T) {
	eng, net, c, vss := rig(t, 4, 4, 2)
	c.InstallAll()
	// Fail the tree-0 link between its spine and leaf 0.
	tr0 := c.Trees()[0]
	bad, _ := tr0.NextLink(tr0.Root, net.Topo.Leaves[0])
	net.FailLink(bad)
	c.HandleLinkFailure(bad)

	// Before the update latency: mappings unchanged.
	if got := vss[0].Mapping(6); len(got) != 4 {
		t.Fatalf("mappings changed early: %d", len(got))
	}
	eng.Run(sim.Second)

	// Host0 (leaf0) -> host6 (leaf3): tree 0 unusable (srcLeaf side).
	macs := vss[0].Mapping(6)
	if len(macs) != 3 {
		t.Fatalf("pruned mapping has %d labels, want 3", len(macs))
	}
	for _, m := range macs {
		if m.ShadowTree() == 0 {
			t.Fatal("broken tree still mapped")
		}
	}
	// Reverse direction (into leaf0) equally pruned.
	if got := vss[6].Mapping(0); len(got) != 3 {
		t.Fatalf("reverse mapping has %d labels", len(got))
	}
	// Unaffected pair (leaf1 <-> leaf2) keeps all four trees.
	if got := vss[2].Mapping(4); len(got) != 4 {
		t.Fatalf("unaffected mapping has %d labels, want 4", len(got))
	}
}

func TestRestoreReinstatesMappings(t *testing.T) {
	eng, net, c, vss := rig(t, 2, 2, 1)
	c.InstallAll()
	tr0 := c.Trees()[0]
	bad, _ := tr0.NextLink(tr0.Root, net.Topo.Leaves[0])
	net.FailLink(bad)
	c.HandleLinkFailure(bad)
	eng.Run(sim.Second)
	if got := vss[0].Mapping(1); len(got) != 1 {
		t.Fatalf("after failure: %d labels", len(got))
	}
	net.RestoreLink(bad)
	c.HandleLinkRestore(bad)
	eng.Run(2 * sim.Second)
	if got := vss[0].Mapping(1); len(got) != 2 {
		t.Fatalf("after restore: %d labels, want 2", len(got))
	}
}

func TestSingleSwitchTopologyNoLabels(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(4, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	c := New(net, Config{})
	vs := vswitch.New(eng, 0, nullSender{}, vswitch.NewPresto(packet.MaxSegSize))
	c.RegisterVSwitch(vs)
	c.InstallAll()
	if got := vs.Mapping(3); len(got) != 0 {
		t.Fatalf("single switch should use real MACs, got %v", got)
	}
}

func TestTunnelModeRuleCounts(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	c := New(net, Config{TunnelMode: true})
	vs := vswitch.New(eng, 0, nullSender{}, vswitch.NewPresto(packet.MaxSegSize))
	c.RegisterVSwitch(vs)
	c.InstallAll()
	// Per-host mode needs 16 hosts x 4 trees = 64 entries per leaf;
	// tunnel mode needs (4-1 destination leaves) x 4 trees = 12.
	for _, leaf := range tp.Leaves {
		if got := net.Switch(leaf).LabelCount(); got != 12 {
			t.Fatalf("tunnel leaf label count = %d, want 12", got)
		}
	}
	// Spines hold one entry per destination leaf for their own tree.
	for _, s := range tp.Spines {
		if got := net.Switch(s).LabelCount(); got != 4 {
			t.Fatalf("tunnel spine label count = %d, want 4", got)
		}
	}
	// Mappings hand out tunnel labels.
	macs := vs.Mapping(12)
	if len(macs) != 4 {
		t.Fatalf("%d labels", len(macs))
	}
	for _, m := range macs {
		if !m.IsTunnel() || m.TunnelLeaf() != 3 {
			t.Fatalf("bad tunnel label %v", m)
		}
	}
}

func TestTunnelModeEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	c := New(net, Config{TunnelMode: true})
	c.InstallAll()
	got := 0
	net.AttachHost(3, handlerFunc(func(p *packet.Packet) { got++ }))
	for _, tr := range c.Trees() {
		p := &packet.Packet{
			SrcMAC:  packet.HostMAC(0),
			DstMAC:  packet.TunnelMAC(1, tr.Index), // leaf 1 hosts 2,3
			Flow:    packet.FlowKey{Src: packet.Addr{Host: 0, Port: 1}, Dst: packet.Addr{Host: 3, Port: 2}},
			Payload: 100,
		}
		net.SendFromHost(0, p)
	}
	eng.RunAll()
	if got != len(c.Trees()) {
		t.Fatalf("delivered %d, want %d", got, len(c.Trees()))
	}
}
