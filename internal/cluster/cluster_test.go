package cluster

import (
	"testing"

	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

func clos(spines, leaves, hostsPer int) *topo.Topology {
	return topo.TwoTierClos(spines, leaves, hostsPer, 1, topo.LinkConfig{})
}

// treeLink returns the link tree i uses between its root and leaf li.
func treeLink(c *Cluster, i, li int) topo.LinkID {
	tr := c.Ctrl.Trees()[i]
	lid, _ := tr.NextLink(tr.Root, c.Topo.Leaves[li])
	return lid
}

func TestPrestoTransferAcrossClos(t *testing.T) {
	c := New(Config{Topology: clos(4, 4, 1), Scheme: Presto, Seed: 1})
	conn := c.Dial(0, 2) // leaf 0 -> leaf 2
	const n = 4 << 20
	conn.Write(n)
	c.Eng.RunAll()
	if got := conn.Delivered(); got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}
	// Flowcells must have sprayed across all four spines.
	for _, s := range c.Topo.Spines {
		if c.Net.Switch(s).RxPackets == 0 {
			t.Errorf("spine %v carried nothing — spraying broken", s)
		}
	}
	// Presto GRO must mask reordering from TCP: no segment arrives out
	// of order and no timeouts on a lossless fabric.
	if n := conn.Receiver().Stats.OOOSegments; n != 0 {
		t.Fatalf("reordering leaked to TCP: %d out-of-order segments", n)
	}
	if conn.Sender().Stats.Timeouts != 0 {
		t.Fatalf("timeouts on a lossless transfer: %+v", conn.Sender().Stats)
	}
}

func TestECMPTransferCompletes(t *testing.T) {
	c := New(Config{Topology: clos(4, 4, 1), Scheme: ECMP, Seed: 2})
	conn := c.Dial(0, 3)
	conn.Write(1 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 1<<20 || !conn.Done() {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	// ECMP pins one path: exactly one spine carries the data.
	used := 0
	for _, s := range c.Topo.Spines {
		if c.Net.Switch(s).RxPackets > 50 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("ECMP data crossed %d spines, want 1", used)
	}
}

func TestMPTCPTransferCompletes(t *testing.T) {
	c := New(Config{Topology: clos(4, 2, 2), Scheme: MPTCP, Seed: 3})
	conn := c.Dial(0, 2)
	conn.Write(2 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 2<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	// Subflows spread over spines.
	used := 0
	for _, s := range c.Topo.Spines {
		if c.Net.Switch(s).RxPackets > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("MPTCP subflows used %d spines", used)
	}
}

func TestOptimalSingleSwitch(t *testing.T) {
	c := New(Config{Topology: topo.SingleSwitch(4, topo.LinkConfig{}), Scheme: ECMP, Seed: 4})
	conn := c.Dial(0, 3)
	conn.Write(1 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
}

func TestFlowletScheme(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: "flowlet:gap=100us", Seed: 5})
	conn := c.Dial(0, 1)
	conn.Write(1 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
}

func TestPrestoECMPScheme(t *testing.T) {
	c := New(Config{Topology: clos(4, 2, 1), Scheme: PrestoECMP, Seed: 6})
	conn := c.Dial(0, 1)
	conn.Write(2 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 2<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	used := 0
	for _, s := range c.Topo.Spines {
		if c.Net.Switch(s).RxPackets > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("per-hop flowcell hashing used %d spines", used)
	}
}

func TestMiceFCTWithAppAck(t *testing.T) {
	c := New(Config{Topology: clos(4, 4, 1), Scheme: Presto, Seed: 7})
	conn := c.Dial(0, 2)
	var fct sim.Time
	conn.OnDelivered = func(total uint64) {
		if total >= 50_000 {
			conn.WriteReverse(100)
		}
	}
	conn.OnReverseDelivered = func(total uint64) {
		if total >= 100 && fct == 0 {
			fct = c.Eng.Now()
		}
	}
	conn.Write(50_000)
	c.Eng.RunAll()
	if fct == 0 {
		t.Fatal("mouse never completed")
	}
	if fct > 2*sim.Millisecond {
		t.Fatalf("idle-network mouse FCT = %v", fct)
	}
}

// rttDist collects a prober's samples into a distribution.
func rttDist(p *Prober) *metrics.Dist {
	d := &metrics.Dist{}
	for _, v := range p.RTTs {
		d.Add(v)
	}
	return d
}

func TestProberMeasuresRTT(t *testing.T) {
	c := New(Config{Topology: clos(4, 4, 1), Scheme: Presto, Seed: 8})
	p := c.NewProber(0, 3, sim.Millisecond)
	p.Start()
	c.Eng.Run(20 * sim.Millisecond)
	p.Stop()
	c.Eng.RunAll()
	rtt := rttDist(p)
	if rtt.N() < 10 {
		t.Fatalf("only %d RTT samples", rtt.N())
	}
	med := rtt.Median()
	if med <= 0 || med > 0.5 {
		t.Fatalf("idle RTT median = %vms, want < 0.5ms", med)
	}
}

func TestFailoverKeepsTrafficFlowing(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: Presto, Seed: 9})
	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	c.Eng.Run(20 * sim.Millisecond)
	before := conn.Delivered()
	if before == 0 {
		t.Fatal("no traffic before failure")
	}
	// Fail tree 0's link at leaf 0.
	bad := treeLink(c, 0, 0)
	c.FailLink(bad)
	c.Eng.Run(200 * sim.Millisecond)
	after := conn.Delivered()
	if after <= before {
		t.Fatal("traffic stopped permanently after failure")
	}
	// Weighted stage: mapping pruned to one tree.
	if got := c.Hosts[0].VS.Mapping(1); len(got) != 1 {
		t.Fatalf("mapping not pruned: %d labels", len(got))
	}
	// And throughput in the weighted stage still moves bytes.
	mid := conn.Delivered()
	c.Eng.Run(250 * sim.Millisecond)
	if conn.Delivered() <= mid {
		t.Fatal("no progress in weighted stage")
	}
}

func TestTwoCompetingElephantsShareFairly(t *testing.T) {
	// Two senders into one receiver port: each should get ~half the
	// link.
	c := New(Config{Topology: clos(2, 2, 2), Scheme: Presto, Seed: 10})
	c1 := c.Dial(0, 2)
	c2 := c.Dial(1, 2)
	c1.SetUnlimited(true)
	c2.SetUnlimited(true)
	const dur = 100 * sim.Millisecond
	c.Eng.Run(dur)
	g1 := float64(c1.Delivered()) * 8 / dur.Seconds() / 1e9
	g2 := float64(c2.Delivered()) * 8 / dur.Seconds() / 1e9
	sum := g1 + g2
	if sum < 7 || sum > 10.2 {
		t.Fatalf("aggregate %.2f Gbps into one 10G port", sum)
	}
	ratio := g1 / g2
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("unfair split: %.2f vs %.2f Gbps", g1, g2)
	}
}

func TestElephantReachesNearLineRate(t *testing.T) {
	c := New(Config{Topology: clos(4, 2, 1), Scheme: Presto, Seed: 11})
	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	const dur = 100 * sim.Millisecond
	c.Eng.Run(dur)
	gbps := float64(conn.Delivered()) * 8 / dur.Seconds() / 1e9
	if gbps < 8.5 {
		t.Fatalf("single presto elephant = %.2f Gbps, want ~9.3", gbps)
	}
}

func TestConnCloseUnregisters(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: Presto, Seed: 12})
	conn := c.Dial(0, 1)
	conn.Write(10_000)
	c.Eng.RunAll()
	conn.Close()
	// A fresh segment for the closed flow must be dropped, not
	// crash.
	c.Hosts[1].VS.DeliverSegment(&packet.Segment{
		Flow:     conn.flows[0],
		StartSeq: 1, EndSeq: 100, Flags: packet.FlagACK,
	})
}
