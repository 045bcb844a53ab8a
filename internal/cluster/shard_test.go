package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"presto/internal/packet"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/topo"
)

// podScenarioFingerprint builds a 4-pod 3-tier cluster, drives cross-
// pod elephants plus intra-pod mice, and renders every observable the
// bit-identity contract covers — clocks, event counts, per-connection
// byte counts, aggregate fabric counters, and per-switch forwarding
// counts — into one canonical string.
func podScenarioFingerprint(t *testing.T, scheme Scheme, shards int) string {
	t.Helper()
	tt := topo.ThreeTierClos(4, 2, 2, 2, topo.LinkConfig{})
	c := New(Config{Topology: tt, Scheme: scheme, Seed: 7, Shards: shards})
	n := tt.NumHosts()
	hostsPerPod := n / 4
	var conns []*Conn
	for i := 0; i < n; i++ {
		// Cross-pod transfer: exercises the core tier and, when
		// sharded, the inter-shard handoff path.
		cross := c.Dial(packet.HostID(i), packet.HostID((i+hostsPerPod)%n))
		cross.Write(200 << 10)
		conns = append(conns, cross)
	}
	for i := 0; i+1 < n; i += 4 {
		// Intra-pod mouse: stays inside one shard end to end.
		m := c.Dial(packet.HostID(i), packet.HostID(i+1))
		m.Write(10 << 10)
		conns = append(conns, m)
	}
	c.RunAll()

	var b strings.Builder
	fmt.Fprintf(&b, "now=%v executed=%d delivered=%d drops=%d down=%d hop=%d loss=%g\n",
		c.Now(), c.Executed(), c.Net.TotalDelivered(), c.Net.TotalDrops(),
		c.Net.TotalDropsDown(), c.Net.TotalHopDrops(), c.Net.LossRate())
	for i, cn := range conns {
		fmt.Fprintf(&b, "conn%d acked=%d delivered=%d\n", i, cn.Acked(), cn.Delivered())
	}
	for _, nd := range tt.Nodes {
		if nd.Kind != topo.KindHost {
			fmt.Fprintf(&b, "sw%d rx=%d\n", nd.ID, c.Net.Switch(nd.ID).RxPackets)
		}
	}
	return b.String()
}

// TestShardedClusterMatchesSerial pins the tentpole invariant at the
// full-cluster level: a sharded run must be bit-identical to the
// serial engine — same clocks, same event counts, same per-connection
// and per-switch outcomes — for shard counts that both divide and
// straddle the pod count.
func TestShardedClusterMatchesSerial(t *testing.T) {
	for _, scheme := range []Scheme{Presto, ECMP, MPTCP} {
		want := podScenarioFingerprint(t, scheme, 1)
		for _, shards := range []int{2, 3, 4} {
			got := podScenarioFingerprint(t, scheme, shards)
			if got != want {
				t.Fatalf("%v with %d shards diverged from serial:\nserial:\n%s\nsharded:\n%s",
					scheme, shards, want, got)
			}
		}
	}
}

// TestShardedFailLinkMidWindowPanics pins the invariant that makes a
// sharded link failure safe: link state changes only between Run
// calls. A FailLink from an event inside a window is refused by the
// fabric's quiescence check, not raced.
func TestShardedFailLinkMidWindowPanics(t *testing.T) {
	tt := topo.ThreeTierClos(2, 1, 1, 1, topo.LinkConfig{})
	c := New(Config{Topology: tt, Shards: 2})
	c.Eng.Schedule(sim.Microsecond, func() { c.FailLink(tt.Links[0].ID) })
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "during a sharded run") {
			t.Fatalf("FailLink inside a window: recovered %v, want the fabric's quiescence panic", r)
		}
	}()
	c.Run(sim.Millisecond)
}

// failoverFingerprint runs two Presto elephants between stride
// partners of the testbed, one each way, with two RTT probers, fails one
// tree link, restores it once the controller's failure push has
// landed, and runs past the restore's push too (each lands 50 ms after
// its event). It renders what the failure path touches: clocks, event
// counts, prober RTTs, per-connection bytes, switch counters and the
// controller's push count.
func failoverFingerprint(t *testing.T, shards int) string {
	t.Helper()
	tp := topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{})
	c := New(Config{Topology: tp, Scheme: Presto, Seed: 5, Shards: shards})
	n := tp.NumHosts()
	var conns []*Conn
	for i := 0; i < n; i += 8 {
		conn := c.Dial(packet.HostID(i), packet.HostID((i+n/2)%n))
		conn.SetUnlimited(true)
		conns = append(conns, conn)
	}
	probers := []*Prober{c.NewProber(0, 13, sim.Millisecond), c.NewProber(6, 1, sim.Millisecond)}
	for _, p := range probers {
		p.Start()
	}
	bad := treeLink(c, 0, 0)
	c.Run(3 * sim.Millisecond)
	c.FailLink(bad)
	c.Run(56 * sim.Millisecond) // past hardware failover and the failure's push at 53 ms
	c.RestoreLink(bad)
	c.Run(110 * sim.Millisecond) // past the restore's push at 106 ms

	var b strings.Builder
	fmt.Fprintf(&b, "now=%v executed=%d updates=%d delivered=%d drops=%d down=%d\n",
		c.Now(), c.Executed(), c.Ctrl.Updates, c.Net.TotalDelivered(), c.Net.TotalDrops(), c.Net.TotalDropsDown())
	for i, p := range probers {
		fmt.Fprintf(&b, "prober%d rtts=%v at=%v\n", i, p.RTTs, p.SampleAt)
	}
	for i, cn := range conns {
		fmt.Fprintf(&b, "conn%d acked=%d delivered=%d\n", i, cn.Acked(), cn.Delivered())
	}
	for _, nd := range tp.Nodes {
		if nd.Kind != topo.KindHost {
			fmt.Fprintf(&b, "sw%d rx=%d\n", nd.ID, c.Net.Switch(nd.ID).RxPackets)
		}
	}
	return b.String()
}

// TestShardedFailoverMatchesSerial pins Presto's failure handling at
// every shard count: hardware failover, the controller's per-vSwitch
// pushes on their own engines, the restore, and probers whose ends
// sit on different shards all give the serial run's bytes.
func TestShardedFailoverMatchesSerial(t *testing.T) {
	want := failoverFingerprint(t, 1)
	if !strings.Contains(want, "updates=3 ") {
		t.Fatalf("serial run: want the install plus two pushes:\n%s", want)
	}
	for _, shards := range []int{2, 4} {
		if got := failoverFingerprint(t, shards); got != want {
			t.Fatalf("%d shards diverged from serial:\nserial:\n%s\nsharded:\n%s", shards, want, got)
		}
	}
}

// TestShardsCappedAtPods checks that over-asking for shards falls back
// to the pod count instead of spinning up empty engines.
func TestShardsCappedAtPods(t *testing.T) {
	tt := topo.ThreeTierClos(2, 1, 1, 1, topo.LinkConfig{})
	c := New(Config{Topology: tt, Shards: 16})
	if c.Shards() != 2 {
		t.Fatalf("Shards() = %d, want capped at 2 pods", c.Shards())
	}
	one := New(Config{Topology: topo.SingleSwitch(4, topo.LinkConfig{}), Shards: 8})
	if one.Shards() != 1 || one.Eng == nil {
		t.Fatal("single-pod topology should fall back to the serial engine")
	}
	// Every way of asking for a serial run builds the same shape: a
	// group of one whose engine is Eng.
	for _, shards := range []int{0, 1, 8} {
		c := New(Config{Topology: topo.SingleSwitch(4, topo.LinkConfig{}), Shards: shards})
		if c.Shards() != 1 || c.Group() == nil || c.Eng != c.Group().Shard(0) {
			t.Fatalf("Shards: %d on one pod: Shards() = %d, Eng == Group().Shard(0) is %v",
				shards, c.Shards(), c.Group() != nil && c.Eng == c.Group().Shard(0))
		}
	}
	if c.Eng != c.Group().Shard(0) {
		t.Fatal("Eng of a sharded cluster is not Group().Shard(0)")
	}
}

// TestGroupOfOneDrivesLikeItsEngine pins the contract that lets the
// tree keep calling c.Eng.Run/Schedule/Now on a serial cluster: on a
// group of one, driving the engine and driving the cluster are
// interchangeable, and the cluster's clock and counters read through
// to the engine's after every step, whichever side took it.
func TestGroupOfOneDrivesLikeItsEngine(t *testing.T) {
	c := New(Config{Topology: clos(2, 2, 2), Scheme: Presto, Seed: 3})
	check := func(step string) {
		t.Helper()
		if c.Now() != c.Eng.Now() || c.Executed() != c.Eng.Executed || c.Group().Pending() != c.Eng.Pending() {
			t.Fatalf("after %s: cluster now=%v executed=%d pending=%d, engine now=%v executed=%d pending=%d",
				step, c.Now(), c.Executed(), c.Group().Pending(), c.Eng.Now(), c.Eng.Executed, c.Eng.Pending())
		}
	}
	a := c.Dial(0, 2)
	a.Write(200 << 10)
	check("Dial")
	if got := c.Eng.Run(100 * sim.Microsecond); got != 100*sim.Microsecond {
		t.Fatalf("Eng.Run returned %v", got)
	}
	check("Eng.Run")
	if got := c.Run(300 * sim.Microsecond); got != 300*sim.Microsecond {
		t.Fatalf("Run returned %v", got)
	}
	check("Run")
	c.RunAll()
	check("RunAll")
	if !a.Done() || c.Eng.Pending() != 0 {
		t.Fatalf("RunAll left the transfer unfinished (done=%v pending=%d)", a.Done(), c.Eng.Pending())
	}

	// An elephant keeps the queue busy so only a stop can end the run.
	c.Dial(1, 3).SetUnlimited(true)
	t0 := c.Now()
	c.Eng.Schedule(50*sim.Microsecond, c.StopRun)
	if got := c.Run(t0 + 10*sim.Millisecond); got != t0+50*sim.Microsecond {
		t.Fatalf("StopRun from an event: Run returned %v, want %v", got, t0+50*sim.Microsecond)
	}
	check("StopRun from an event")

	progress := make(chan struct{})
	c.Eng.Schedule(20*sim.Microsecond, func() { close(progress) })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-progress
		c.StopRun()
	}()
	c.RunAll()
	wg.Wait()
	check("StopRun from another goroutine")
	if c.Eng.Pending() == 0 {
		t.Fatal("stop drained the elephant's event chain")
	}
	// The stop was consumed by the run it ended: both doors still drive.
	t1 := c.Now()
	c.Eng.Run(t1 + 10*sim.Microsecond)
	check("Eng.Run after stops")
	if got := c.Run(t1 + 20*sim.Microsecond); got != t1+20*sim.Microsecond {
		t.Fatalf("Run after stops returned %v, want %v", got, t1+20*sim.Microsecond)
	}
	check("Run after stops")
}

// meshScenarioFingerprint drives cross-leaf traffic on a 4-leaf mesh
// (one pod per leaf) and renders the same observables as
// podScenarioFingerprint. The mesh's star trees route every pair
// through hub leaves, so sharded runs exercise inter-shard handoff on
// every transfer.
func meshScenarioFingerprint(t *testing.T, scheme Scheme, shards int) string {
	t.Helper()
	tt := topo.LeafMesh(4, 2, topo.LinkConfig{})
	c := New(Config{Topology: tt, Scheme: scheme, Seed: 11, Shards: shards})
	n := tt.NumHosts()
	var conns []*Conn
	for i := 0; i < n; i++ {
		cross := c.Dial(packet.HostID(i), packet.HostID((i+3)%n))
		cross.Write(100 << 10)
		conns = append(conns, cross)
	}
	c.RunAll()

	var b strings.Builder
	fmt.Fprintf(&b, "now=%v executed=%d delivered=%d drops=%d loss=%g\n",
		c.Now(), c.Executed(), c.Net.TotalDelivered(), c.Net.TotalDrops(), c.Net.LossRate())
	for i, cn := range conns {
		fmt.Fprintf(&b, "conn%d acked=%d delivered=%d\n", i, cn.Acked(), cn.Delivered())
	}
	for _, nd := range tt.Nodes {
		if nd.Kind != topo.KindHost {
			fmt.Fprintf(&b, "sw%d rx=%d\n", nd.ID, c.Net.Switch(nd.ID).RxPackets)
		}
	}
	return b.String()
}

// TestEveryRegisteredSchemeShardsBitIdentical is the registry
// completeness gate: every scheme in the registry — including ones
// added after this test was written — must produce bit-identical
// results serial vs sharded on a small mesh cluster. A scheme that
// breaks the determinism contract fails here by name.
func TestEveryRegisteredSchemeShardsBitIdentical(t *testing.T) {
	for _, name := range scheme.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			want := meshScenarioFingerprint(t, Scheme(name), 1)
			got := meshScenarioFingerprint(t, Scheme(name), 2)
			if got != want {
				t.Fatalf("scheme %s diverged between serial and 2 shards:\nserial:\n%s\nsharded:\n%s",
					name, want, got)
			}
		})
	}
}
