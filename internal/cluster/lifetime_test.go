package cluster

import (
	"testing"

	"presto/internal/gro"
	"presto/internal/packet"
	"presto/internal/sim"
)

// TestDialSkipsLiveKeysAfterPortWrap: the source-port counter wraps
// after 55,536 dials (mice-churn's arrival rate gets there in 0.56
// simulated seconds). A dial that draws a port whose flow key a live
// connection between the same two hosts still owns must move on —
// registering it again would overwrite the owner's edge-table entry,
// and closing the newcomer would delete it, cutting the owner's ACK
// path.
func TestDialSkipsLiveKeysAfterPortWrap(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: Presto, Seed: 1})
	elephant := c.Dial(0, 1) // draws the first port, 10000
	elephant.SetUnlimited(true)
	c.Run(2 * sim.Millisecond)

	// Stand at the wrap without the 55,536 dials it takes to walk
	// there: the next four ports are 65534, 65535, 10000, 10001.
	c.nextPort = 65534
	live := map[packet.FlowKey]*Conn{elephant.Flows()[0]: elephant}
	for i := 0; i < 4; i++ {
		conn := c.Dial(0, 1)
		if i%2 == 0 {
			// Dial-and-close, as the spec generator does with a mouse.
			if conn.Flows()[0] == elephant.Flows()[0] {
				t.Fatalf("dial %d was handed the elephant's flow key %v", i, conn.Flows()[0])
			}
			conn.Close()
			continue
		}
		if _, dup := live[conn.Flows()[0]]; dup {
			t.Fatalf("dial %d shares flow key %v with a live connection", i, conn.Flows()[0])
		}
		live[conn.Flows()[0]] = conn
	}
	if c.nextPort <= 10001 || c.nextPort > 10010 {
		t.Fatalf("setup: next port %d, the dials did not cross the wrap", c.nextPort)
	}

	before := elephant.Delivered()
	c.Run(c.Now() + 2*sim.Millisecond)
	// 2 ms at 10 Gbps is 2.5 MB; a sender that lost its ACK path stalls
	// within one window.
	if got := elephant.Delivered() - before; got < 1<<20 {
		t.Fatalf("elephant delivered %d bytes in 2 ms after the wrap, want > 1 MB", got)
	}
	if n := elephant.SenderTimeouts(); n != 0 {
		t.Fatalf("elephant hit %d RTOs", n)
	}
}

// TestLateRetransmitMeetsItsGROEntry: receive-offload state is soft
// state that Close leaves alone. The spec generator closes a connection
// as its last request byte is delivered, before the final ACK reaches
// the sender, so the sender's tail-loss probe and RTO resend data that
// lands at the destination after the close. It must meet the flow's own
// GRO entry — the expected sequence and flowcell that judged the
// original bytes — not a fresh entry seeded from the retransmission
// under a new first-seen ordinal.
func TestLateRetransmitMeetsItsGROEntry(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: Presto, Seed: 1})
	g := c.Hosts[1].NIC.GRO().(*gro.Presto)
	// Exactly one flowcell of data, so whatever is resent opens the next.
	const n = packet.MaxSegSize
	conn := c.Dial(0, 1)
	var pktsAtClose uint64
	flowsAfterClose := -1
	conn.OnDelivered = func(total uint64) {
		if total == n {
			conn.Close()
			pktsAtClose = g.Stats().PacketsIn
			c.Eng.Schedule(0, func() { flowsAfterClose = g.Flows() })
		}
	}
	conn.Write(n)
	c.Run(300 * sim.Millisecond)

	if conn.Delivered() != n || flowsAfterClose != 1 {
		t.Fatalf("delivered %d of %d bytes; %d GRO entries after Close, want the flow's 1", conn.Delivered(), n, flowsAfterClose)
	}
	if g.Stats().PacketsIn == pktsAtClose || conn.SenderTimeouts() == 0 {
		t.Fatalf("setup: no retransmission reached the destination after Close (%d RTOs)", conn.SenderTimeouts())
	}
	// The first retransmission is a duplicate stamped with the next
	// flowcell: against the flow's entry that is Algorithm 2's overlap
	// case, while a fresh entry would seed from it and count it in order.
	if g.Flows() != 1 || g.Stats().FlushReasons[gro.FlushOverlap] == 0 {
		t.Fatalf("%d GRO entries, %d overlap pushes after the late retransmissions; want the flow's 1 entry and > 0",
			g.Flows(), g.Stats().FlushReasons[gro.FlushOverlap])
	}
}
