package fabric

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// collector is a test Handler recording delivered packets.
type collector struct {
	eng  *sim.Engine
	pkts []*packet.Packet
	at   []sim.Time
}

func (c *collector) HandlePacket(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

// installTrees hand-installs label forwarding state the way the
// controller does: one shadow MAC per (host, tree) at every switch the
// tree routes at, ending at the host port.
func installTrees(n *Network) []topo.Tree {
	trees := n.Topo.Trees()
	for i, sw := range n.switches {
		if sw == nil {
			continue
		}
		id := topo.NodeID(i)
		sw.SetNumTrees(len(trees))
		for h := range n.Topo.Hosts {
			host := packet.HostID(h)
			for _, tr := range trees {
				if lid, ok := tr.NextLink(id, n.Topo.LeafOf(host)); ok {
					sw.InstallLabel(packet.ShadowMAC(host, tr.Index), lid)
				} else if id == n.Topo.LeafOf(host) {
					sw.InstallLabel(packet.ShadowMAC(host, tr.Index), n.Topo.HostLink(host))
				}
			}
		}
	}
	return trees
}

func testNet(t *testing.T, spines, leaves, hostsPer int) (*sim.Engine, *Network, map[packet.HostID]*collector) {
	t.Helper()
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(spines, leaves, hostsPer, 1, topo.LinkConfig{})
	n := New(eng, tp, Config{})
	cols := make(map[packet.HostID]*collector)
	for i := 0; i < tp.NumHosts(); i++ {
		c := &collector{eng: eng}
		cols[packet.HostID(i)] = c
		n.AttachHost(packet.HostID(i), c)
	}
	return eng, n, cols
}

func mkPkt(src, dst packet.HostID, payload int) *packet.Packet {
	return &packet.Packet{
		SrcMAC:  packet.HostMAC(src),
		DstMAC:  packet.HostMAC(dst),
		Flow:    packet.FlowKey{Src: packet.Addr{Host: src, Port: 1000}, Dst: packet.Addr{Host: dst, Port: 2000}},
		Payload: payload,
	}
}

// TestShardCountersFillTwoCacheLines pins the per-shard bucket's size:
// shards write their buckets concurrently, so a bucket that shrank
// below two 64-byte lines could share one with its neighbour.
func TestShardCountersFillTwoCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(shardCounters{}); n != 128 {
		t.Errorf("unsafe.Sizeof(shardCounters{}) = %d, want 128", n)
	}
}

func TestPipeSerializationAndPropagation(t *testing.T) {
	eng, n, cols := testNet(t, 2, 2, 2)
	p := mkPkt(0, 1, 1000) // same leaf: host0 -> leaf -> host1
	n.SendFromHost(0, p)
	eng.RunAll()
	c := cols[1]
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	// Wire size = payload + headers + eth overhead.
	wire := p.WireSize()
	ser := sim.Time(int64(wire) * 8 * int64(sim.Second) / 10e9)
	// host->leaf: ser+prop(500ns), leaf->host: ser+prop(500ns).
	want := 2*ser + 2*500*sim.Nanosecond
	if c.at[0] != want {
		t.Fatalf("delivery at %v, want %v", c.at[0], want)
	}
}

// TestSnapshotClockFollowsBareEngine pins the group-of-one contract on
// the fabric side: a New(eng, ...) network driven only through eng.Run
// computes link utilisation against eng's current clock, not a group
// clock that only the group's own Run would advance.
func TestSnapshotClockFollowsBareEngine(t *testing.T) {
	eng, n, _ := testNet(t, 2, 2, 2)
	if n.EngineFor(n.Topo.HostNode(0)) != eng {
		t.Fatal("EngineFor does not return the engine the fabric was built on")
	}
	p := mkPkt(0, 1, 1000)
	for i := 0; i < 10; i++ {
		n.SendFromHost(0, p)
	}
	const window = 100 * sim.Microsecond
	eng.Run(window)
	tp := n.Topo
	access := n.Pipe(tp.HostLink(0), tp.HostNode(0))
	want := float64(access.TxBytes*8) / (window.Seconds() * 10e9)
	key := fmt.Sprintf("link%d:%d->%d", tp.HostLink(0), tp.HostNode(0), tp.LeafOf(0))
	link, ok := n.TelemetrySnapshot()["links"].(map[string]any)[key].(map[string]any)
	if !ok {
		t.Fatalf("snapshot has no %s", key)
	}
	if got := link["utilization"].(float64); got != want || want == 0 {
		t.Fatalf("utilization %g after eng.Run(%v), want %g (tx_bytes over the engine clock)", got, window, want)
	}
}

func TestPipeQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(1, 1, 3, 1, topo.LinkConfig{})
	n := New(eng, tp, Config{SwitchQueueBytes: 5000})
	c := &collector{eng: eng}
	n.AttachHost(2, c)
	// Two senders converge on host 2's port: the 2:1 incast overflows
	// the shallow output queue.
	for i := 0; i < 50; i++ {
		n.SendFromHost(0, mkPkt(0, 2, 1400))
		n.SendFromHost(1, mkPkt(1, 2, 1400))
	}
	eng.RunAll()
	if n.TotalDrops() == 0 {
		t.Fatal("expected tail drops at the shallow switch port")
	}
	if len(c.pkts)+int(n.TotalDrops()) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", len(c.pkts), n.TotalDrops())
	}
	if n.LossRate() <= 0 {
		t.Fatal("LossRate should be positive")
	}
}

func TestLabelForwardingAcrossClos(t *testing.T) {
	eng, n, cols := testNet(t, 4, 4, 4)
	trees := installTrees(n)
	if len(trees) != 4 {
		t.Fatalf("%d trees", len(trees))
	}
	// Send host 0 -> host 12 (leaf 0 -> leaf 3) over each tree.
	for _, tr := range trees {
		p := mkPkt(0, 12, 500)
		p.DstMAC = packet.ShadowMAC(12, tr.Index)
		n.SendFromHost(0, p)
	}
	eng.RunAll()
	if len(cols[12].pkts) != 4 {
		t.Fatalf("delivered %d, want 4", len(cols[12].pkts))
	}
	// Each tree's spine should have forwarded exactly one packet.
	for _, s := range n.Topo.Spines {
		if got := n.Switch(s).RxPackets; got != 1 {
			t.Errorf("spine %v forwarded %d packets, want 1", s, got)
		}
	}
	// Labels arrive intact (vSwitch, not fabric, restores real MACs).
	for _, p := range cols[12].pkts {
		if !p.DstMAC.IsShadow() {
			t.Error("fabric should not rewrite labels on delivery")
		}
	}
}

func TestRealMACForwardingECMP(t *testing.T) {
	eng, n, cols := testNet(t, 4, 2, 2)
	// host 0 (leaf 0) -> host 2 (leaf 1) with real MAC: ECMP-routed.
	for fc := uint32(0); fc < 64; fc++ {
		p := mkPkt(0, 2, 100)
		p.FlowcellID = fc
		n.SendFromHost(0, p)
	}
	eng.RunAll()
	if len(cols[2].pkts) != 64 {
		t.Fatalf("delivered %d, want 64", len(cols[2].pkts))
	}
	// Spraying on flowcell ID should hit more than one spine.
	spinesUsed := 0
	for _, s := range n.Topo.Spines {
		if n.Switch(s).RxPackets > 0 {
			spinesUsed++
		}
	}
	if spinesUsed < 2 {
		t.Fatalf("ECMP hash used %d spines, want >= 2", spinesUsed)
	}
}

func TestFailoverBlackHoleThenReroute(t *testing.T) {
	eng, n, cols := testNet(t, 2, 2, 2)
	installTrees(n)
	tree0 := n.Topo.Trees()[0]
	// Fail the tree-0 link between its spine and leaf 0 at t=0.
	failed, _ := tree0.NextLink(tree0.Root, n.Topo.Leaves[0])
	n.FailLink(failed)

	// Immediately send on tree 0 from host 0 (leaf 0) to host 2
	// (leaf 1): black hole (failover not yet active).
	p1 := mkPkt(0, 2, 100)
	p1.DstMAC = packet.ShadowMAC(2, 0)
	n.SendFromHost(0, p1)
	eng.Run(1 * sim.Millisecond)
	if len(cols[2].pkts) != 0 {
		t.Fatal("packet delivered during black-hole window")
	}

	// After the failover latency (5 ms default), the leaf rewrites to
	// the backup tree and the packet gets through.
	eng.At(6*sim.Millisecond, func() {
		p2 := mkPkt(0, 2, 100)
		p2.DstMAC = packet.ShadowMAC(2, 0)
		n.SendFromHost(0, p2)
	})
	eng.RunAll()
	if len(cols[2].pkts) != 1 {
		t.Fatalf("delivered %d after failover, want 1", len(cols[2].pkts))
	}
	if got := cols[2].pkts[0].DstMAC.ShadowTree(); got != 1 {
		t.Fatalf("packet arrived on tree %d, want rewritten to 1", got)
	}
}

func TestFailoverDetourAtSpine(t *testing.T) {
	// Fail the *destination-side* downlink: sender's uplink is fine,
	// the spine must detour via another leaf.
	eng, n, cols := testNet(t, 2, 3, 1)
	installTrees(n)
	tree0 := n.Topo.Trees()[0]
	dstLeaf := n.Topo.LeafOf(2) // host 2 on leaf 2
	failed, _ := tree0.NextLink(tree0.Root, dstLeaf)
	n.FailLink(failed)
	eng.At(10*sim.Millisecond, func() {
		p := mkPkt(0, 2, 100)
		p.DstMAC = packet.ShadowMAC(2, 0)
		n.SendFromHost(0, p)
	})
	eng.RunAll()
	if len(cols[2].pkts) != 1 {
		t.Fatalf("delivered %d via spine detour, want 1", len(cols[2].pkts))
	}
}

func TestRestoreLink(t *testing.T) {
	eng, n, cols := testNet(t, 1, 2, 1)
	installTrees(n)
	tree0 := n.Topo.Trees()[0]
	lid, _ := tree0.NextLink(tree0.Root, n.Topo.Leaves[0])
	n.FailLink(lid)
	if n.LinkUp(lid) {
		t.Fatal("link should be down")
	}
	n.RestoreLink(lid)
	if !n.LinkUp(lid) {
		t.Fatal("link should be up")
	}
	p := mkPkt(0, 1, 100)
	p.DstMAC = packet.ShadowMAC(1, 0)
	n.SendFromHost(0, p)
	eng.RunAll()
	if len(cols[1].pkts) != 1 {
		t.Fatal("packet lost after restore")
	}
}

func TestHopGuardDropsLoops(t *testing.T) {
	eng, n, _ := testNet(t, 2, 2, 2)
	// Create an intentional two-switch label loop.
	l0, l1 := n.Topo.Leaves[0], n.Topo.Leaves[1]
	label := packet.ShadowMAC(99, 0)
	up := n.Topo.SpineLeafLinks(n.Topo.Spines[0], l0)[0]
	// leaf0 -> spine0 -> leaf0 ... : spine sends back to leaf0.
	n.Switch(l0).InstallLabel(label, up)
	n.Switch(n.Topo.Spines[0]).InstallLabel(label, up)
	_ = l1
	p := mkPkt(0, 99, 100)
	p.DstMAC = label
	n.SendFromHost(0, p)
	eng.RunAll()
	if n.TotalHopDrops() == 0 {
		t.Fatal("loop guard did not trigger")
	}
}

// TestInstallLabelOffSwitchPanics: a label installed on a link that does
// not touch the switch fails at install, naming the switch, the link and
// the label, and installs nothing.
func TestInstallLabelOffSwitchPanics(t *testing.T) {
	_, n, _ := testNet(t, 2, 2, 2)
	leaf := n.Topo.Leaves[0]
	far := n.Topo.HostLink(3)
	if n.Topo.LeafOf(3) == leaf {
		t.Fatal("setup: host 3 is attached to leaf 0")
	}
	label := packet.ShadowMAC(3, 0)
	defer func() {
		msg, _ := recover().(string)
		want := fmt.Sprintf("switch %d: label %v installed on link %d", leaf, label, far)
		if !strings.Contains(msg, want) {
			t.Fatalf("InstallLabel panicked with %q, want it to name %q", msg, want)
		}
		if c := n.Switch(leaf).LabelCount(); c != 0 {
			t.Fatalf("%d labels installed after the refused install", c)
		}
	}()
	n.Switch(leaf).InstallLabel(label, far)
}

func TestBandwidthSharing(t *testing.T) {
	// Two senders saturating one receiver port: deliveries should be
	// spread over ~2x the serialization time of one sender's data.
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(3, topo.LinkConfig{})
	n := New(eng, tp, Config{SwitchQueueBytes: 1 << 20})
	c := &collector{eng: eng}
	n.AttachHost(2, c)
	const pkts = 50
	for i := 0; i < pkts; i++ {
		n.SendFromHost(0, mkPkt(0, 2, 1400))
		n.SendFromHost(1, mkPkt(1, 2, 1400))
	}
	eng.RunAll()
	if len(c.pkts) != 2*pkts {
		t.Fatalf("delivered %d, want %d", len(c.pkts), 2*pkts)
	}
	wire := mkPkt(0, 2, 1400).WireSize()
	ser := sim.Time(int64(wire) * 8 * int64(sim.Second) / 10e9)
	minTime := ser * sim.Time(2*pkts)
	last := c.at[len(c.at)-1]
	if last < minTime {
		t.Fatalf("last delivery %v before %v: receiver port exceeded line rate", last, minTime)
	}
}

func TestRealMACForwardingToSpineHost(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(2, 2, 1, 1, topo.LinkConfig{})
	remote := tp.AddSpineHost(tp.Spines[1], 100e6, sim.Microsecond)
	n := New(eng, tp, Config{})
	c := &collector{eng: eng}
	n.AttachHost(remote, c)
	// Leaf-attached host 0 sends to the spine-attached remote user.
	n.SendFromHost(0, mkPkt(0, remote, 500))
	eng.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d to spine host, want 1", len(c.pkts))
	}
	// And the reverse direction (remote user to server).
	c2 := &collector{eng: eng}
	n.AttachHost(0, c2)
	n.SendFromHost(remote, mkPkt(remote, 0, 500))
	eng.RunAll()
	if len(c2.pkts) != 1 {
		t.Fatalf("delivered %d from spine host, want 1", len(c2.pkts))
	}
}

// Property: packet conservation — every packet injected into the
// fabric is either delivered to a host, tail-dropped at a queue,
// black-holed by a down link, or dropped by the hop guard. Nothing
// vanishes, nothing duplicates.
func TestPacketConservationProperty(t *testing.T) {
	prop := func(seed uint64, spinesRaw, hostsRaw uint8, failSome bool) bool {
		rng := sim.NewRNG(seed)
		spines := int(spinesRaw)%4 + 1
		hostsPer := int(hostsRaw)%3 + 1
		eng := sim.NewEngine()
		tp := topo.TwoTierClos(spines, 2, hostsPer, 1, topo.LinkConfig{})
		n := New(eng, tp, Config{SwitchQueueBytes: 20_000})
		installTrees(n)
		var delivered uint64
		for i := 0; i < tp.NumHosts(); i++ {
			n.AttachHost(packet.HostID(i), handlerCount{&delivered})
		}
		if failSome {
			// Fail one fabric link mid-run.
			lid := tp.SpineLeafLinks(tp.Spines[0], tp.Leaves[0])[0]
			eng.Schedule(50*sim.Microsecond, func() { n.FailLink(lid) })
		}
		const injected = 400
		trees := tp.Trees()
		for i := 0; i < injected; i++ {
			src := packet.HostID(rng.Intn(tp.NumHosts()))
			dst := packet.HostID(rng.Intn(tp.NumHosts()))
			if dst == src {
				dst = (dst + 1) % packet.HostID(tp.NumHosts())
			}
			p := mkPkt(src, dst, 1200)
			switch rng.Intn(3) {
			case 0: // real MAC, per-hop ECMP
			case 1: // label
				p.DstMAC = packet.ShadowMAC(dst, trees[rng.Intn(len(trees))].Index)
			case 2: // label with a flowcell id
				p.DstMAC = packet.ShadowMAC(dst, trees[rng.Intn(len(trees))].Index)
				p.FlowcellID = uint32(i)
			}
			at := rng.Duration(200 * sim.Microsecond)
			eng.At(at, func() { n.SendFromHost(src, p) })
		}
		eng.RunAll()
		total := delivered + n.TotalDrops() + n.TotalDropsDown() + n.TotalHopDrops()
		return total == injected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type handlerCount struct{ n *uint64 }

func (h handlerCount) HandlePacket(*packet.Packet) { *h.n++ }
