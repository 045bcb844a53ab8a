package cluster

import (
	"runtime"
	"testing"

	"presto/internal/fabric"
	"presto/internal/nic"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// TestPacketAccounting: every packet a NIC takes from its shard's arena
// goes back to an arena, whatever becomes of it — delivered and consumed
// by GRO, tail-dropped, discarded with a failed link's queue or
// black-holed on it, dropped by a full RX ring, or delivered on another
// shard. Once a run has drained, Σ Get == Σ Put over the cluster's
// pools, and the Gets are exactly the packets the NICs sent.
func TestPacketAccounting(t *testing.T) {
	incast := func(c *Cluster) {
		for src := 0; src < 3; src++ {
			c.Dial(packet.HostID(src), 4).Write(1 << 20)
		}
	}
	cases := []struct {
		name  string
		cfg   Config
		drive func(c *Cluster)
		// hit reports how often the run took the path the case is for.
		hit func(c *Cluster) uint64
	}{
		{
			name: "presto lossless",
			cfg:  Config{Topology: clos(4, 4, 1), Scheme: Presto},
			drive: func(c *Cluster) {
				for i := 0; i < 4; i++ {
					c.Dial(packet.HostID(i), packet.HostID((i+1)%4)).Write(1 << 20)
				}
			},
			hit: func(c *Cluster) uint64 { return c.Net.TotalDelivered() },
		},
		{
			name:  "ecmp tail drops",
			cfg:   Config{Topology: clos(2, 2, 4), Scheme: ECMP, Fabric: fabric.Config{SwitchQueueBytes: 30_000}},
			drive: incast,
			hit:   func(c *Cluster) uint64 { return c.Net.TotalDrops() },
		},
		{
			name: "link failure",
			cfg:  Config{Topology: clos(2, 2, 1), Scheme: Presto},
			drive: func(c *Cluster) {
				c.Dial(0, 1).Write(8 << 20)
				c.Run(2 * sim.Millisecond)
				c.FailLink(treeLink(c, 0, 0)) // queue discarded, in-service packet black-holed
			},
			hit: func(c *Cluster) uint64 { return c.Net.TotalDropsDown() },
		},
		{
			name:  "rx ring overflow",
			cfg:   Config{Topology: clos(2, 2, 4), Scheme: "presto:gro=none", NIC: nic.Config{RingSize: 64}},
			drive: incast,
			hit: func(c *Cluster) uint64 {
				var n uint64
				for _, h := range c.Hosts {
					n += h.NIC.Stats.RxDrops
				}
				return n
			},
		},
		{
			name: "two shards",
			cfg:  Config{Topology: topo.ThreeTierClos(4, 2, 2, 2, topo.LinkConfig{}), Scheme: Presto, Shards: 2},
			drive: func(c *Cluster) {
				n := c.Topo.NumHosts()
				for i := 0; i < n; i++ {
					c.Dial(packet.HostID(i), packet.HostID((i+n/4)%n)).Write(200 << 10)
				}
			},
			hit: func(c *Cluster) uint64 { return c.Net.TotalDelivered() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 3
			c := New(tc.cfg)
			tc.drive(c)
			c.RunAll()
			for _, conn := range c.Conns() {
				if !conn.Done() {
					t.Fatalf("setup: a transfer did not complete (%d bytes delivered)", conn.Delivered())
				}
			}
			if tc.hit(c) == 0 {
				t.Fatal("setup: the run never took the path this case is for")
			}
			var sent uint64
			for _, h := range c.Hosts {
				sent += h.NIC.Stats.TxPackets
			}
			gets, puts, news := c.Net.PoolTotals()
			if gets != sent {
				t.Fatalf("pools handed out %d packets, NICs sent %d", gets, sent)
			}
			if puts != gets {
				t.Fatalf("%d packets taken, %d returned: %d leaked", gets, puts, gets-puts)
			}
			if news >= gets {
				t.Fatalf("all %d packets were allocated: the arena is never reused", gets)
			}
		})
	}
}

// steadyAllocsPerPacket runs one stride elephant per host past slow
// start, then measures allocations per delivered packet over 3 ms.
func steadyAllocsPerPacket(t *testing.T, cfg Config, stride int) float64 {
	t.Helper()
	c := New(cfg)
	n := c.Topo.NumHosts()
	for i := 0; i < n; i++ {
		c.Dial(packet.HostID(i), packet.HostID((i+stride)%n)).SetUnlimited(true)
	}
	c.Run(5 * sim.Millisecond) // slow start over; rings, arenas, lanes and tables at their steady size

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d0 := c.Net.TotalDelivered()
	c.Run(c.Now() + 3*sim.Millisecond)
	runtime.ReadMemStats(&m1)
	pkts := c.Net.TotalDelivered() - d0
	if pkts < 20_000 {
		t.Fatalf("setup: %d packets delivered in 3 ms, want the fabric busy", pkts)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(pkts)
}

// TestSteadyStateAllocsPerPacket gates the deterministic half of the
// ledger's allocs_per_pkt where every workload pays it. Past warm-up
// the whole stack — TCP, vSwitch, TSO, four pipe hops, RX ring, Presto
// GRO — may allocate at most 0.35 objects per delivered packet: a share
// of a GRO segment and of an ACK's segment. The packet itself comes
// from the arena, and the forward path and the engine allocate nothing.
// On two shards the budget also covers the barrier's return path.
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	pod := topo.ThreeTierClos(4, 2, 2, 2, topo.LinkConfig{})
	for _, tc := range []struct {
		name   string
		cfg    Config
		stride int
	}{
		// The paper's 16-host testbed.
		{"serial", Config{Topology: clos(4, 4, 4), Scheme: Presto}, 4},
		// Cross-pod elephants: data dies on one shard, its ACKs on the other.
		{"two shards", Config{Topology: pod, Scheme: Presto, Shards: 2}, pod.NumHosts() / 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 1
			per := steadyAllocsPerPacket(t, tc.cfg, tc.stride)
			t.Logf("%.3f allocations per delivered packet", per)
			if per > 0.35 {
				t.Fatalf("%.3f allocations per delivered packet, want <= 0.35", per)
			}
		})
	}
}
