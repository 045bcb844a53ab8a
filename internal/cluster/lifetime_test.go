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
		if owner, dup := live[conn.Flows()[0]]; dup {
			t.Fatalf("dial %d shares flow key %v with a live connection opened at %v", i, conn.Flows()[0], owner.OpenedAt)
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

// TestCloseEndsGROState: a connection's receive-offload entries — data
// on f at Dst, ACKs and responses on f.Reverse() at Src — die at Close,
// so GRO state tracks live flows instead of flows ever seen.
func TestCloseEndsGROState(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: Presto, Seed: 1})
	held := func() int {
		n := 0
		for _, h := range c.Hosts {
			n += h.NIC.GRO().(*gro.Presto).Flows()
		}
		return n
	}
	conn := c.Dial(0, 1)
	conn.OnDelivered = func(total uint64) {
		if total == 200_000 {
			conn.WriteReverse(1000)
		}
	}
	conn.Write(200_000)
	c.RunAll()
	if conn.Delivered() != 200_000 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	if got := held(); got != 2 {
		t.Fatalf("%d GRO flow entries for one open request/response connection, want 2", got)
	}
	conn.Close()
	if got := held(); got != 0 {
		t.Fatalf("%d GRO flow entries survive Close, want 0", got)
	}
}
