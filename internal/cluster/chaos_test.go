package cluster

import (
	"testing"
	"testing/quick"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// Failure injection: transfers must survive arbitrary single-link
// failures (with or without restore) as long as the topology stays
// connected — fast failover, the controller update, TLP, and the RTO
// backstop together guarantee progress.

func TestTransferSurvivesFailureProperty(t *testing.T) {
	prop := func(seed uint64, linkPick uint8, restore bool) bool {
		c := New(Config{
			Topology: topo.TwoTierClos(3, 3, 1, 1, topo.LinkConfig{}),
			Scheme:   Presto,
			Seed:     seed,
		})
		conn := c.Dial(0, 2) // leaf0 -> leaf2
		const n = 2 << 20
		conn.Write(n)

		// Fail one random fabric (spine-leaf) link mid-transfer.
		var fabricLinks []topo.LinkID
		for _, l := range c.Topo.Links {
			a, b := c.Topo.Nodes[l.A].Kind, c.Topo.Nodes[l.B].Kind
			if a != topo.KindHost && b != topo.KindHost {
				fabricLinks = append(fabricLinks, l.ID)
			}
		}
		bad := fabricLinks[int(linkPick)%len(fabricLinks)]
		c.Eng.At(2*sim.Millisecond, func() { c.FailLink(bad) })
		if restore {
			c.Eng.At(400*sim.Millisecond, func() { c.RestoreLink(bad) })
		}
		c.Eng.Run(5 * sim.Second)
		return conn.Delivered() == n && conn.Done()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFailureStillConnected(t *testing.T) {
	// Fail two of three trees: the last one must carry everything.
	c := New(Config{
		Topology: topo.TwoTierClos(3, 2, 1, 1, topo.LinkConfig{}),
		Scheme:   Presto,
		Seed:     7,
	})
	conn := c.Dial(0, 1)
	conn.Write(1 << 20)
	c.Eng.At(sim.Millisecond, func() {
		c.FailLink(treeLink(c, 0, 0))
		c.FailLink(treeLink(c, 1, 1))
	})
	c.Eng.Run(5 * sim.Second)
	if conn.Delivered() != 1<<20 {
		t.Fatalf("delivered %d with one tree left", conn.Delivered())
	}
}

func TestFailureDuringMice(t *testing.T) {
	// Mice flows launched right as the link dies: they must complete
	// (possibly slowly), never hang forever.
	c := New(Config{
		Topology: topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   Presto,
		Seed:     8,
	})
	done := 0
	for i := 0; i < 8; i++ {
		conn := c.Dial(packet.HostID(i%2), packet.HostID(2+i%2))
		conn.OnDelivered = func(total uint64) {
			if total >= 50_000 {
				done++
			}
		}
		c.Eng.At(sim.Time(i)*200*sim.Microsecond, func() { conn.Write(50_000) })
	}
	c.Eng.At(300*sim.Microsecond, func() {
		c.FailLink(treeLink(c, 0, 0))
	})
	c.Eng.Run(10 * sim.Second)
	if done != 8 {
		t.Fatalf("%d/8 mice completed after failure", done)
	}
}
