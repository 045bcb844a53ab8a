// Conformance tests for §4's traffic patterns, written against the
// imperative generators this package replaced and kept as an external
// test package (they drive presto.SpecCell, which imports spec). Each
// test drives the old behaviour through a workload spec: the
// cross-pod constraint of random and bijection, the bounded fallbacks
// on degenerate topologies, shuffle's closed loop, request/response
// mice, the trace-driven size mix, and north-south cross traffic.
package spec_test

import (
	"testing"

	"presto"
	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

func testCluster(scheme cluster.Scheme, seed uint64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Topology: topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   scheme,
		Seed:     seed,
	})
}

// client builds a one-client spec from an arrival process name, a size
// and a selection.
func client(process string, size wspec.SizeDist, sel wspec.Select) *wspec.Spec {
	c := wspec.Client{ID: "c", Arrival: wspec.Arrival{Process: process}, Size: size, Select: sel}
	if process != wspec.ProcOnce {
		c.Rate = 500
	}
	return &wspec.Spec{Version: wspec.Version, Name: "test", Clients: []wspec.Client{c}}
}

var unlimited = wspec.SizeDist{Kind: wspec.SizeUnlimited}

func fixed(bytes int) wspec.SizeDist { return wspec.SizeDist{Kind: wspec.SizeFixed, Bytes: bytes} }

// start compiles ws onto c, starts it, and returns the generator with
// every flow it opens (sized flows as they start, elephants at once).
func start(t *testing.T, ws *wspec.Spec, c *cluster.Cluster, until sim.Time) (*wspec.Generator, *[]wspec.FlowStart) {
	t.Helper()
	g, err := wspec.Compile(ws, c, c.RNG().Uint64())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	flows := &[]wspec.FlowStart{}
	g.OnFlowStart = func(f wspec.FlowStart) { *flows = append(*flows, f) }
	g.Start(until)
	return g, flows
}

// elephantPairs returns the (src, dst) of every connection on c.
func elephantPairs(c *cluster.Cluster) [][2]packet.HostID {
	var pairs [][2]packet.HostID
	for _, conn := range c.Conns() {
		pairs = append(pairs, [2]packet.HostID{conn.Src, conn.Dst})
	}
	return pairs
}

func TestStridePairs(t *testing.T) {
	c := testCluster(cluster.Presto, 1)
	g, _ := start(t, client(wspec.ProcOnce, unlimited, wspec.Select{Kind: wspec.SelStride, Stride: 2}), c, sim.Second)
	if n := len(c.Conns()); n != 4 {
		t.Fatalf("%d flows", n)
	}
	for _, p := range elephantPairs(c) {
		if p[1] != (p[0]+2)%4 {
			t.Errorf("stride(2) paired %d with %d", p[0], p[1])
		}
	}
	c.Eng.Run(30 * sim.Millisecond)
	for i, gbps := range g.Throughputs(c.Eng.Now()) {
		if gbps < 1 {
			t.Errorf("flow %d at %.2f Gbps", i, gbps)
		}
	}
	if f := g.Fairness(c.Eng.Now()); f < 0.8 {
		t.Errorf("stride fairness %.2f", f)
	}
}

func TestRandomBijectionCrossPod(t *testing.T) {
	c := testCluster(cluster.Presto, 2)
	start(t, client(wspec.ProcOnce, unlimited, wspec.Select{Kind: wspec.SelBijection}), c, sim.Second)
	seenDst := map[packet.HostID]bool{}
	for _, p := range elephantPairs(c) {
		if c.Topo.SameLeaf(p[0], p[1]) {
			t.Fatal("bijection assigned a same-pod destination")
		}
		if seenDst[p[1]] {
			t.Fatal("bijection reused a destination")
		}
		seenDst[p[1]] = true
	}
	if len(seenDst) != 4 {
		t.Fatalf("%d flows", len(seenDst))
	}
}

func TestRandomWorkloadCrossPod(t *testing.T) {
	c := testCluster(cluster.ECMP, 3)
	start(t, client(wspec.ProcOnce, unlimited, wspec.Select{Kind: wspec.SelRandom}), c, sim.Second)
	pairs := elephantPairs(c)
	if len(pairs) != 4 {
		t.Fatalf("%d flows", len(pairs))
	}
	for i, p := range pairs {
		if int(p[0]) != i {
			t.Fatalf("flow %d starts at server %d; want one flow per server", i, p[0])
		}
		if c.Topo.SameLeaf(p[0], p[1]) {
			t.Fatal("random workload assigned a same-pod destination")
		}
	}
}

func TestElephantBaselineReset(t *testing.T) {
	c := testCluster(cluster.Presto, 4)
	g, _ := start(t, client(wspec.ProcOnce, unlimited, wspec.Select{Kind: wspec.SelStride, Stride: 2}), c, sim.Second)
	c.Eng.Run(20 * sim.Millisecond)
	g.ResetBaseline(c.Eng.Now())
	if got := g.MeanTput(c.Eng.Now() + 1); got > 0.1 {
		t.Fatalf("throughput right after reset = %v", got)
	}
	c.Eng.Run(40 * sim.Millisecond)
	if got := g.MeanTput(c.Eng.Now()); got < 1 {
		t.Fatalf("throughput after reset window = %v", got)
	}
}

func TestShuffleCompletesTransfers(t *testing.T) {
	c := testCluster(cluster.Presto, 5)
	g, flows := start(t, client(wspec.ProcOnce, fixed(200_000), wspec.Select{Kind: wspec.SelShuffle}), c, sim.Second)
	inFlight := map[int]int{}
	maxInFlight := 0
	sent := map[[2]int]bool{}
	observed := 0
	check := func() {
		for _, f := range (*flows)[observed:] {
			if sent[[2]int{f.Src, f.Dst}] || f.Src == f.Dst {
				t.Fatalf("transfer %d->%d repeated or self-directed", f.Src, f.Dst)
			}
			sent[[2]int{f.Src, f.Dst}] = true
			inFlight[f.Src]++
			maxInFlight = max(maxInFlight, inFlight[f.Src])
		}
		observed = len(*flows)
	}
	g.OnFlowDone = func(d wspec.FlowDone) {
		check() // account for starts before this completion frees a slot
		inFlight[d.Src]--
	}
	check()
	c.Eng.Run(100 * sim.Millisecond)
	check()
	res := g.Results(c.Eng.Now())[0]
	if res.Started != 4*3 {
		t.Fatalf("total transfers = %d, want 12", res.Started)
	}
	if res.Finished < res.Started {
		t.Fatalf("only %d/%d transfers completed", res.Finished, res.Started)
	}
	if res.BytesMoved < uint64(res.Started)*200_000 {
		t.Fatalf("moved %d bytes", res.BytesMoved)
	}
	if len(sent) != 12 {
		t.Fatalf("%d distinct (src, dst) transfers, want every server to every other", len(sent))
	}
	if maxInFlight != 2 {
		t.Fatalf("a source had %d transfers in flight, want exactly 2 at peak", maxInFlight)
	}
}

func TestMiceFCTs(t *testing.T) {
	c := testCluster(cluster.Presto, 6)
	ws := client(wspec.ProcPoisson, fixed(50_000), wspec.Select{Kind: wspec.SelPairs, Pairs: [][2]int{{0, 2}, {1, 3}}})
	ws.Clients[0].ResponseBytes = 100
	g, _ := start(t, ws, c, 50*sim.Millisecond)
	var oneWay, roundTrip sim.Time
	g.OnFlowDone = func(d wspec.FlowDone) { roundTrip = d.FCT }
	c.Eng.Run(80 * sim.Millisecond)
	res := g.Results(c.Eng.Now())[0]
	if res.Finished < 10 {
		t.Fatalf("finished %d mice (started %d)", res.Finished, res.Started)
	}
	if res.FCT.Median() <= 0 || res.FCT.Median() > 5 {
		t.Fatalf("idle mice median FCT = %vms", res.FCT.Median())
	}
	// Every request was answered on its own connection: the response
	// bytes arrived back at the source.
	for i, conn := range c.Conns() {
		if conn.Delivered() == 50_000 && conn.Sender().Delivered() != 100 {
			t.Fatalf("mouse %d: request delivered but %d response bytes came back", i, conn.Sender().Delivered())
		}
	}
	// The FCT spans request → response: the same mouse without a
	// response completes strictly sooner.
	c2 := testCluster(cluster.Presto, 6)
	ws.Clients[0].ResponseBytes = 0
	g2, _ := start(t, ws, c2, 50*sim.Millisecond)
	g2.OnFlowDone = func(d wspec.FlowDone) { oneWay = d.FCT }
	c2.Eng.Run(80 * sim.Millisecond)
	if oneWay <= 0 || roundTrip <= oneWay {
		t.Fatalf("request/response FCT %v not above one-way FCT %v", roundTrip, oneWay)
	}
}

func TestProbersCollect(t *testing.T) {
	// RTT probers ride along with every throughput/latency cell, over
	// the server stride pairs of whatever topology the cell runs on.
	ws, err := wspec.Preset("elephants")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := presto.SpecCell("presto", ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cell.Run(presto.Options{
		Seed: 7, Warmup: 5 * sim.Millisecond, Duration: 15 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTT.N() < 16*10 {
		t.Fatalf("%d RTT samples from 16 probers over 20 ms", res.RTT.N())
	}
}

// traceMixSizes draws n flow sizes from the trace-mix preset's size
// mixture by running it flat out on a cluster and recording starts.
func traceMixSizes(t *testing.T, n int) []int {
	t.Helper()
	ws, err := wspec.Preset("trace-mix")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws.Clients { // arrivals every ~1 µs: sample sizes, not load
		ws.Clients[i].Rate *= 1e6 / 4000
	}
	c := testCluster(cluster.ECMP, 1)
	_, flows := start(t, ws, c, sim.Second)
	for len(*flows) < n {
		c.Eng.Run(c.Eng.Now() + sim.Millisecond)
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = (*flows)[i].Bytes
	}
	return sizes
}

func TestFlowSizeDistShape(t *testing.T) {
	var mice, eleph int
	var bytes, elephBytes float64
	sizes := traceMixSizes(t, 20_000)
	for _, s := range sizes {
		bytes += float64(s)
		if s < 100_000 {
			mice++
		}
		if s > 1_000_000 {
			eleph++
			elephBytes += float64(s)
		}
	}
	// The decomposition the paper relies on ([5, 11, 33]): mice far
	// outnumber elephants while elephants carry nearly all the bytes.
	// (At the preset's ×10 scaling the log-normal body's median sits at
	// the 100 KB mice cutoff, so mice are just under half of all flows.)
	if frac := float64(mice) / float64(len(sizes)); frac < 0.4 {
		t.Fatalf("mice fraction = %.2f, want > 0.4", frac)
	}
	if mice < 3*eleph {
		t.Fatalf("%d mice vs %d elephants; want mice to dominate by count", mice, eleph)
	}
	if frac := elephBytes / bytes; frac < 0.5 {
		t.Fatalf("elephant byte share = %.2f, want > 0.5", frac)
	}
}

func TestFlowSizeScale(t *testing.T) {
	// The preset bakes in §6's ×10 scaling: body median 100 KB, Pareto
	// tail from 10 MB, nothing under the 100-byte floor.
	sizes := traceMixSizes(t, 5_000)
	below, tail := 0, 0
	for _, s := range sizes {
		if s < 100 {
			t.Fatalf("flow of %d bytes is under the floor", s)
		}
		if s < 100_000 {
			below++
		}
		if s >= 10_000_000 {
			tail++
		}
	}
	if frac := float64(below) / float64(len(sizes)); frac < 0.40 || frac > 0.55 {
		t.Fatalf("%.2f of flows under 100 KB; the scaled body median should sit there", frac)
	}
	if frac := float64(tail) / float64(len(sizes)); frac < 0.03 || frac > 0.08 {
		t.Fatalf("%.3f of flows in the >= 10 MB tail, want ~0.05", frac)
	}
}

func TestTraceWorkloadRuns(t *testing.T) {
	ws, err := wspec.Preset("trace-mix")
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(cluster.Presto, 8)
	g, flows := start(t, ws, c, 40*sim.Millisecond)
	mice := 0
	g.OnFlowDone = func(d wspec.FlowDone) {
		if d.Bytes < 100_000 {
			mice++
		}
	}
	c.Eng.Run(100 * sim.Millisecond)
	if len(*flows) < 20 {
		t.Fatalf("only %d flows started", len(*flows))
	}
	for _, f := range *flows {
		if c.Topo.SameLeaf(packet.HostID(f.Src), packet.HostID(f.Dst)) {
			t.Fatalf("trace flow %d->%d stays inside a pod", f.Src, f.Dst)
		}
	}
	if mice == 0 {
		t.Fatal("no mice completed")
	}
}

func TestNorthSouthTraffic(t *testing.T) {
	tp := topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{})
	var remotes []packet.HostID
	for _, s := range tp.Spines {
		remotes = append(remotes, tp.AddSpineHost(s, 100e6, 5*sim.Microsecond))
	}
	c := cluster.New(cluster.Config{Topology: tp, Scheme: cluster.Presto, Seed: 9})
	ws, err := wspec.Preset("north-south")
	if err != nil {
		t.Fatal(err)
	}
	start(t, ws, c, 30*sim.Millisecond)
	c.Eng.Run(60 * sim.Millisecond)
	// Remote users must have received traffic through the spines.
	got := uint64(0)
	for _, r := range remotes {
		got += c.Hosts[r].NIC.Stats.RxPackets
	}
	if got == 0 {
		t.Fatal("no north-south packets delivered")
	}
}

func TestRandomWorkloadOnSingleSwitch(t *testing.T) {
	// Regression: the Optimal baseline (all hosts on one switch) must
	// not spin forever looking for a cross-pod destination.
	single := func() *cluster.Cluster {
		return cluster.New(cluster.Config{
			Topology: topo.SingleSwitch(8, topo.LinkConfig{}),
			Scheme:   cluster.ECMP,
			Seed:     5,
		})
	}
	for _, sel := range []string{wspec.SelRandom, wspec.SelBijection} {
		c := single()
		start(t, client(wspec.ProcOnce, unlimited, wspec.Select{Kind: sel}), c, sim.Second)
		pairs := elephantPairs(c)
		if len(pairs) != 8 {
			t.Fatalf("%s: %d flows", sel, len(pairs))
		}
		for _, p := range pairs {
			if p[0] == p[1] {
				t.Fatalf("%s: self-flow on single switch", sel)
			}
		}
	}
	c := single()
	_, flows := start(t, client(wspec.ProcPoisson, fixed(10_000), wspec.Select{Kind: wspec.SelRandom}), c, 10*sim.Millisecond)
	c.Eng.Run(20 * sim.Millisecond)
	if len(*flows) == 0 {
		t.Fatal("rate-based random workload idle on single switch")
	}
}

func TestDegenerateTopologiesCannotHangWorkloads(t *testing.T) {
	// Regression: a topology where the cross-pod constraint is
	// unsatisfiable used to spin forever in the draw-until-valid loops.
	// Every selection must terminate: with an error when no server has
	// anyone to talk to, with bounded deterministic fallbacks otherwise.
	top := topo.TwoTierClos(1, 2, 1, 1, topo.LinkConfig{})
	top.MarkRemote(packet.HostID(1)) // leaves host 0 as the only server
	c := cluster.New(cluster.Config{Topology: top, Scheme: cluster.Presto, Seed: 7})
	for _, sel := range []string{wspec.SelRandom, wspec.SelBijection, wspec.SelShuffle, wspec.SelStride} {
		size := unlimited
		if sel == wspec.SelShuffle {
			size = fixed(1000)
		}
		if _, err := wspec.Compile(client(wspec.ProcOnce, size, wspec.Select{Kind: sel}), c, 1); err == nil {
			t.Fatalf("%s compiled on a 1-server topology", sel)
		}
	}

	// Two servers sharing the only populated leaf: every destination is
	// same-pod, so once+random finds no pair and rate-based random opens
	// nothing, but both return.
	top = topo.TwoTierClos(1, 2, 2, 1, topo.LinkConfig{})
	top.MarkRemote(packet.HostID(2))
	top.MarkRemote(packet.HostID(3))
	c = cluster.New(cluster.Config{Topology: top, Scheme: cluster.Presto, Seed: 7})
	if _, err := wspec.Compile(client(wspec.ProcOnce, unlimited, wspec.Select{Kind: wspec.SelRandom}), c, 1); err == nil {
		t.Fatal("once+random compiled with no cross-pod destination anywhere")
	}
	_, flows := start(t, client(wspec.ProcPoisson, fixed(1000), wspec.Select{Kind: wspec.SelRandom}), c, 5*sim.Millisecond)
	c.Eng.Run(10 * sim.Millisecond)
	if len(*flows) != 0 {
		t.Fatalf("random generator opened %d flows with no valid destination", len(*flows))
	}
}

func TestCrossPodPermutationDerangementFallback(t *testing.T) {
	// Three servers, two of them sharing a leaf: no permutation can be
	// fully cross-pod (pigeonhole), so the fallback derangement must
	// kick in — deterministic across seeds, and free of fixed points.
	pairsFor := func(seed uint64) [][2]packet.HostID {
		top := topo.TwoTierClos(1, 2, 1, 1, topo.LinkConfig{})
		top.AddLeafHost(top.Leaves[0], 10_000_000_000, 0) // host 2 joins leaf 0
		c := cluster.New(cluster.Config{Topology: top, Scheme: cluster.Presto, Seed: seed})
		start(t, client(wspec.ProcOnce, unlimited, wspec.Select{Kind: wspec.SelBijection}), c, sim.Second)
		return elephantPairs(c)
	}
	p, q := pairsFor(11), pairsFor(12)
	if len(p) != 3 {
		t.Fatalf("fallback pairing %v does not cover all 3 servers", p)
	}
	seen := map[packet.HostID]bool{}
	for i := range p {
		if p[i][0] == p[i][1] {
			t.Fatalf("fallback permutation %v has a fixed point at %d", p, i)
		}
		if seen[p[i][1]] {
			t.Fatalf("fallback permutation %v reuses destination %d", p, p[i][1])
		}
		seen[p[i][1]] = true
		if p[i] != q[i] {
			t.Fatalf("fallback not deterministic: %v vs %v", p, q)
		}
	}
}
