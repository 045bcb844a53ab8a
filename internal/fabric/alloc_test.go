package fabric

import (
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// forwardBurst is the steady queue depth the allocation gates run at:
// every measured run injects this many packets back to back, so both
// pipes on the path queue that deep.
const forwardBurst = 16

// forwardAllocs measures host pipe -> switch -> host pipe forwarding of
// a reused burst of packets from host 0 to host 1: inject, run drains
// the fabric, repeat. A warm-up run first grows the rings, the event
// arena and (on a shard group) the window journals to their steady
// size; after it the path must allocate nothing.
func forwardAllocs(t *testing.T, n *Network, run func()) float64 {
	t.Helper()
	var got uint64
	n.AttachHost(1, handlerCount{&got})
	pkts := make([]*packet.Packet, forwardBurst)
	for i := range pkts {
		pkts[i] = mkPkt(0, 1, packet.MSS)
	}
	burst := func() {
		for _, p := range pkts {
			p.Hops = 0
			n.SendFromHost(0, p)
		}
		run()
	}
	burst()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, burst)
	if want := uint64((runs + 2) * forwardBurst); got != want { // AllocsPerRun adds one warm-up call of its own
		t.Fatalf("delivered %d packets, want %d", got, want)
	}
	return allocs
}

// TestForwardPathAllocs gates the deterministic half of the ledger's
// fabric.driver.forward_allocs: two pipe hops and a switch lookup per
// packet, with no closure, no queue reslice and no map on the way.
func TestForwardPathAllocs(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, topo.SingleSwitch(2, topo.LinkConfig{}), Config{})
	if allocs := forwardAllocs(t, n, func() { eng.RunAll() }); allocs != 0 {
		t.Fatalf("forwarding a %d-packet burst allocates %v per burst, want 0", forwardBurst, allocs)
	}
}

// TestForwardPathAllocsAcrossShards is the same gate with the receiving
// host on a second shard, so every packet's last arrival rides the
// group's handoff path: journaled by SendArg, staged at the barrier and
// inserted into the other engine's heap. The access links propagate for
// longer than a burst takes to serialise, so each window has one busy
// shard and runs inline — the gate is on the handoff, not on starting
// worker goroutines, which a Run pays once however many packets it
// moves.
func TestForwardPathAllocsAcrossShards(t *testing.T) {
	const prop = 100 * sim.Microsecond
	tp := topo.SingleSwitch(2, topo.LinkConfig{HostProp: prop})
	shardOf := make([]int32, len(tp.Nodes))
	shardOf[tp.HostNode(1)] = 1
	g := sim.NewShardGroup(2, prop, 1)
	n := NewSharded(g, shardOf, tp, Config{})
	if allocs := forwardAllocs(t, n, func() { g.RunAll() }); allocs != 0 {
		t.Fatalf("forwarding a %d-packet burst across a shard boundary allocates %v per burst, want 0", forwardBurst, allocs)
	}
	if got := n.counters[1].delivered; got == 0 {
		t.Fatal("setup: nothing was delivered on shard 1")
	}
}

// TestFailDiscardsOnlyTheQueue pins what Pipe.fail does to the three
// places a packet can be: waiting ones are black-holed at once, the one
// being serialised is black-holed when its serialisation ends (and
// still counts as transmitted), and one already propagating arrives.
// Each black-holed packet goes to the arena exactly when it is counted.
func TestFailDiscardsOnlyTheQueue(t *testing.T) {
	eng, n, cols := testNet(t, 2, 2, 2)
	tp := n.Topo
	access := n.Pipe(tp.HostLink(0), tp.HostNode(0))
	for i := 0; i < 4; i++ {
		n.SendFromHost(0, mkPkt(0, 1, packet.MSS))
	}
	// One serialisation is 1.23 us and the access link propagates for
	// 500 ns: at 1.5 us the first packet is propagating, the second is
	// in service and two are waiting.
	eng.Run(1500 * sim.Nanosecond)
	n.FailLink(tp.HostLink(0))
	if access.DropsDown != 2 || access.TxPackets != 1 || access.queuedWire != 0 {
		t.Fatalf("at fail: black-holed %d, transmitted %d, %d bytes queued; want 2, 1, 0",
			access.DropsDown, access.TxPackets, access.queuedWire)
	}
	if _, puts, _ := n.PoolTotals(); puts != 2 {
		t.Fatalf("at fail: %d packets returned to the arena, want the 2 discarded with the queue", puts)
	}
	eng.RunAll()
	if access.DropsDown != 3 || access.TxPackets != 2 {
		t.Fatalf("after drain: black-holed %d, transmitted %d; want 3, 2", access.DropsDown, access.TxPackets)
	}
	if _, puts, _ := n.PoolTotals(); puts != 3 {
		t.Fatalf("after drain: %d packets returned to the arena, want 3 (the delivered one is its handler's)", puts)
	}
	if got := len(cols[1].pkts); got != 1 {
		t.Fatalf("delivered %d packets, want the 1 that was already propagating", got)
	}
}

// putter is a Handler that consumes what it is delivered, as a NIC does
// once GRO has seen the packet.
type putter struct{ pool *packet.Pool }

func (h putter) HandlePacket(p *packet.Packet) { h.pool.Put(p) }

// TestOneWayCrossShardTrafficReturnsPackets is the leak the barrier's
// return path exists to prevent: host 0 on shard 0 sends at line rate
// to host 1 on shard 1 and nothing comes back, so every packet is taken
// from shard 0's pool and dies into shard 1's. Levelling must keep
// handing them back: over 80,000 packets, the number ever allocated
// stays within the peak number in flight plus 2 x poolSlack (what the
// receiving pool may hold before a barrier levels it, and what the
// levelling then leaves on each side).
func TestOneWayCrossShardTrafficReturnsPackets(t *testing.T) {
	const (
		prop  = 100 * sim.Microsecond
		burst = 8 // full frames per 10 us: just under 10 Gbps
		total = 80_000
	)
	tp := topo.SingleSwitch(2, topo.LinkConfig{HostProp: prop})
	shardOf := make([]int32, len(tp.Nodes))
	shardOf[tp.HostNode(1)] = 1
	g := sim.NewShardGroup(2, prop, 1)
	n := NewSharded(g, shardOf, tp, Config{})
	src := n.PacketPool(0)
	n.AttachHost(1, putter{n.PacketPool(1)})

	eng, sent := g.Shard(0), 0
	var tick func()
	tick = func() {
		for i := 0; i < burst; i++ {
			p := src.Get()
			*p = *mkPkt(0, 1, packet.MSS)
			n.SendFromHost(0, p)
		}
		if sent += burst; sent < total {
			eng.Schedule(10*sim.Microsecond, tick)
		}
	}
	eng.Schedule(0, tick)
	peak := uint64(0)
	for g.Pending() > 0 {
		g.Run(g.Now() + sim.Millisecond)
		gets, puts, _ := n.PoolTotals()
		peak = max(peak, gets-puts)
	}
	gets, puts, news := n.PoolTotals()
	if gets != total || puts != total {
		t.Fatalf("%d packets taken and %d returned, want %d each", gets, puts, total)
	}
	if peak < 100 {
		t.Fatalf("setup: at most %d packets in flight, want a standing queue across the shard boundary", peak)
	}
	if limit := peak + 2*poolSlack; news > limit {
		t.Fatalf("%d packets allocated for %d sent with at most %d in flight, want <= %d: the receiving shard is hoarding",
			news, total, peak, limit)
	}
}
