package cluster

import (
	"slices"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

func TestGROOverrideOfficialWithPrestoSpray(t *testing.T) {
	// The Figure 5 configuration: Presto spraying but stock GRO.
	c := New(Config{Topology: clos(2, 2, 2), Scheme: "presto:gro=official", Seed: 21})
	conn := c.Dial(0, 2)
	conn.SetUnlimited(true)
	// A competing flow creates the path-skew that reorders flowcells.
	conn2 := c.Dial(1, 3)
	conn2.SetUnlimited(true)
	c.Eng.Run(30 * sim.Millisecond)
	if conn.Delivered() == 0 {
		t.Fatal("no progress")
	}
	// Official GRO must leak reordering under spraying.
	if conn.Receiver().Stats.OOOSegments == 0 {
		t.Fatal("official GRO showed no reordering under flowcell spraying")
	}
}

func TestPerPacketSchemeCompletes(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: PerPacket, Seed: 22})
	conn := c.Dial(0, 1)
	conn.Write(500_000)
	c.Eng.RunAll()
	if conn.Delivered() != 500_000 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	// TSO off: the NIC only ever saw MSS-sized writes.
	if c.Hosts[0].NIC.Stats.TxSegments < c.Hosts[0].NIC.Stats.TxPackets {
		t.Fatal("per-packet scheme sent multi-packet TSO segments")
	}
}

func TestMPTCPMiceComplete(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 2), Scheme: MPTCP, Seed: 23})
	var fct sim.Time
	conn := c.Dial(0, 2)
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
		t.Fatal("MPTCP mouse never completed")
	}
}

func TestWeightedMappingDistribution(t *testing.T) {
	// Push a duplicated label list (weights 1/2, 1/4, 1/4) and verify
	// the fabric sees that split.
	c := New(Config{Topology: clos(4, 2, 1), Scheme: Presto, Seed: 24})
	p0 := packet.ShadowMAC(1, 0)
	p1 := packet.ShadowMAC(1, 1)
	p2 := packet.ShadowMAC(1, 2)
	c.Hosts[0].VS.SetMapping(1, []packet.MAC{p0, p1, p0, p2})
	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	c.Eng.Run(30 * sim.Millisecond)

	rx := make(map[int]uint64)
	for i, s := range c.Topo.Spines {
		rx[i] = c.Net.Switch(s).RxPackets
	}
	total := rx[0] + rx[1] + rx[2] + rx[3]
	if total == 0 {
		t.Fatal("no fabric traffic")
	}
	frac0 := float64(rx[0]) / float64(total)
	if frac0 < 0.40 || frac0 > 0.60 {
		t.Fatalf("weighted tree 0 carried %.2f of traffic, want ~0.5", frac0)
	}
	if rx[3] != 0 {
		t.Fatalf("unmapped tree 3 carried %d packets", rx[3])
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(Config{Topology: clos(2, 2, 2), Scheme: Presto, Seed: 99})
		a := c.Dial(0, 2)
		b := c.Dial(1, 3)
		a.SetUnlimited(true)
		b.SetUnlimited(true)
		c.Eng.Run(25 * sim.Millisecond)
		return a.Delivered(), b.Delivered()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) uint64 {
		c := New(Config{Topology: clos(2, 2, 2), Scheme: ECMP, Seed: seed})
		a := c.Dial(0, 2)
		a.SetUnlimited(true)
		c.Eng.Run(10 * sim.Millisecond)
		return c.Net.Switch(c.Topo.Spines[0]).RxPackets
	}
	same := 0
	for seed := uint64(0); seed < 6; seed++ {
		if run(seed) == run(seed+100) {
			same++
		}
	}
	// ECMP path choice is random per seed; at least some pairs must
	// differ.
	if same == 6 {
		t.Fatal("ECMP path selection ignores the seed")
	}
}

func TestFlowcellThresholdOverride(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: "presto:cell=16KB", Seed: 25})
	conn := c.Dial(0, 1)
	conn.Write(1 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	// 1 MB at 16 KB per flowcell: at least ~60 flowcell transitions.
	if got := c.Hosts[0].VS.Stats.Flowcells; got < 50 {
		t.Fatalf("only %d flowcell transitions with a 16KB threshold", got)
	}
}

func TestOptimalBaselineBeatsNothing(t *testing.T) {
	// Sanity: a single-switch cluster with ECMP scheme has zero shadow
	// rewrites (no labels exist).
	c := New(Config{Topology: topo.SingleSwitch(4, topo.LinkConfig{}), Scheme: ECMP, Seed: 26})
	conn := c.Dial(0, 1)
	conn.Write(100_000)
	c.Eng.RunAll()
	if c.Hosts[0].VS.Stats.MACRewrites != 0 {
		t.Fatal("labels used on a single switch")
	}
}

func TestPrestoOverTunnelMode(t *testing.T) {
	c := New(Config{Topology: clos(4, 4, 1), Scheme: "presto:labels=tunnel", Seed: 31})
	conn := c.Dial(0, 2)
	conn.Write(4 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 4<<20 {
		t.Fatalf("delivered %d over tunnels", conn.Delivered())
	}
	// All spines carried flowcells.
	for _, s := range c.Topo.Spines {
		if c.Net.Switch(s).RxPackets == 0 {
			t.Fatal("tunnel spraying missed a spine")
		}
	}
	if conn.Sender().Stats.Timeouts != 0 {
		t.Fatalf("timeouts over tunnels: %+v", conn.Sender().Stats)
	}
}

func TestTunnelModeFailover(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 1), Scheme: "presto:labels=tunnel", Seed: 32})
	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	c.Eng.Run(20 * sim.Millisecond)
	before := conn.Delivered()
	bad := treeLink(c, 0, 0)
	c.FailLink(bad)
	c.Eng.Run(300 * sim.Millisecond)
	if conn.Delivered() <= before {
		t.Fatal("tunnel-mode traffic died after failure")
	}
}

// TestFailurePushLandsAfterControlLoop pins when the controller's
// failure push lands: an affected vSwitch keeps its old label list
// until 50 ms after the failure (hardware failover covers the gap) and
// has the broken tree pruned from then on.
func TestFailurePushLandsAfterControlLoop(t *testing.T) {
	c := New(Config{Topology: clos(4, 4, 1), Scheme: Presto})
	const failAt, loop = sim.Millisecond, 50 * sim.Millisecond
	vs := c.Hosts[0].VS
	before := slices.Clone(vs.Mapping(1))
	broken := packet.ShadowMAC(1, 0)
	if len(before) != 4 || !slices.Contains(before, broken) {
		t.Fatalf("host 0's labels for host 1 at install: %v, want all 4 trees", before)
	}
	c.Run(failAt)
	c.FailLink(treeLink(c, 0, 0)) // tree 0 loses host 0's leaf
	c.Run(failAt + loop - 1)
	if got := vs.Mapping(1); !slices.Equal(got, before) {
		t.Fatalf("mapping at failure + 50 ms - 1 ns = %v, want the install's %v", got, before)
	}
	c.Run(failAt + loop)
	if got := vs.Mapping(1); len(got) != 3 || slices.Contains(got, broken) {
		t.Fatalf("mapping at failure + 50 ms = %v, want %v without tree 0's %v", got, before, broken)
	}
}

func TestPrestoOverThreeTier(t *testing.T) {
	// Full stack over a 3-tier fabric: flowcell spraying across cores,
	// Presto GRO masking, lossless completion.
	c := New(Config{
		Topology: topo.ThreeTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   Presto,
		Seed:     51,
	})
	// Host 0 (pod 1) -> host 2 (pod 2): cross-pod, 5 hops.
	conn := c.Dial(0, 2)
	conn.Write(4 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 4<<20 {
		t.Fatalf("delivered %d over 3-tier", conn.Delivered())
	}
	// Both cores carried traffic (flowcells sprayed over both trees).
	for _, core := range c.Topo.Cores {
		if c.Net.Switch(core).RxPackets == 0 {
			t.Fatal("a core carried nothing — 3-tier spraying broken")
		}
	}
	if n := conn.Receiver().Stats.OOOSegments; n != 0 {
		t.Fatalf("reordering leaked on 3-tier: %d out-of-order segments", n)
	}
	if conn.Sender().Stats.Timeouts != 0 {
		t.Fatalf("timeouts: %+v", conn.Sender().Stats)
	}
}

func TestECMPOverThreeTier(t *testing.T) {
	c := New(Config{
		Topology: topo.ThreeTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   ECMP,
		Seed:     52,
	})
	conn := c.Dial(0, 3)
	conn.Write(1 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
}

func TestThreeTierSamePodStaysLocal(t *testing.T) {
	c := New(Config{
		Topology: topo.ThreeTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   Presto,
		Seed:     53,
	})
	// Hosts 0 and 1 are in the same pod but different leaves: traffic
	// crosses aggs, never cores.
	conn := c.Dial(0, 1)
	conn.Write(1 << 20)
	c.Eng.RunAll()
	if conn.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", conn.Delivered())
	}
	for _, core := range c.Topo.Cores {
		if c.Net.Switch(core).RxPackets != 0 {
			t.Fatal("same-pod traffic crossed a core")
		}
	}
}

func TestThreeTierElephantNearLineRate(t *testing.T) {
	c := New(Config{
		Topology: topo.ThreeTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   Presto,
		Seed:     54,
	})
	conn := c.Dial(0, 2)
	conn.SetUnlimited(true)
	const dur = 60 * sim.Millisecond
	c.Eng.Run(dur)
	gbps := float64(conn.Delivered()) * 8 / dur.Seconds() / 1e9
	if gbps < 8 {
		t.Fatalf("3-tier presto elephant at %.2f Gbps", gbps)
	}
}

func TestGammaParallelLinks(t *testing.T) {
	// gamma=2 parallel links per spine-leaf pair: the controller
	// allocates 2x trees and Presto sprays over all of them.
	c := New(Config{
		Topology: topo.TwoTierClos(2, 2, 1, 2, topo.LinkConfig{}),
		Scheme:   Presto,
		Seed:     62,
	})
	if got := len(c.Ctrl.Trees()); got != 4 {
		t.Fatalf("gamma=2 allocated %d trees, want 4", got)
	}
	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	c.Eng.Run(20 * sim.Millisecond)
	if conn.Delivered() == 0 {
		t.Fatal("no progress with parallel links")
	}
	// Both parallel links of each spine-leaf pair carry traffic.
	for _, s := range c.Topo.Spines {
		for _, leaf := range c.Topo.Leaves {
			for _, lid := range c.Topo.SpineLeafLinks(s, leaf) {
				fwd := c.Net.Pipe(lid, s).TxPackets + c.Net.Pipe(lid, leaf).TxPackets
				if fwd == 0 {
					t.Fatalf("parallel link %d idle", lid)
				}
			}
		}
	}
}

func TestHandshakeModeAddsRTTToMice(t *testing.T) {
	run := func(handshake bool) sim.Time {
		cfg := Config{Topology: clos(4, 4, 1), Scheme: Presto, Seed: 71}
		cfg.TCP.Handshake = handshake
		c := New(cfg)
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
		return fct
	}
	warm := run(false)
	cold := run(true)
	if warm == 0 || cold == 0 {
		t.Fatal("mice never completed")
	}
	if cold <= warm {
		t.Fatalf("handshake FCT %v <= warm %v", cold, warm)
	}
	// The cold start costs roughly one extra RTT (tens of us here),
	// not an RTO.
	if cold-warm > 5*sim.Millisecond {
		t.Fatalf("handshake added %v — smells like a timeout", cold-warm)
	}
}
