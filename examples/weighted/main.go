// Weighted multipathing (§3.3): approximate fractional path weights by
// duplicating shadow-MAC labels in the sender's round-robin sequence —
// the paper's p1,p2,p3,p2 example — and watch the fabric's per-spine
// load follow the weights.
//
//	go run ./examples/weighted
package main

import (
	"fmt"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/topo"
)

func main() {
	c := cluster.New(cluster.Config{
		Topology: topo.TwoTierClos(3, 2, 1, 1, topo.LinkConfig{}),
		Scheme:   cluster.Presto,
		Seed:     1,
	})

	// Push weights 0.25 / 0.5 / 0.25 for host 0 -> host 1 via the
	// controller's duplication helper.
	if !c.Ctrl.SetWeightedMapping(0, 1, []float64{0.25, 0.5, 0.25}, 8) {
		panic("weighted mapping rejected")
	}
	fmt.Println("label sequence pushed to host 0's vSwitch:")
	for i, m := range c.Hosts[0].VS.Mapping(1) {
		fmt.Printf("  slot %d -> spanning tree %d\n", i, m.ShadowTree())
	}

	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	c.Run(100 * sim.Millisecond)

	fmt.Println("\npackets forwarded per spine after 100 ms:")
	var total uint64
	for _, s := range c.Topo.Spines {
		total += c.Net.Switch(s).RxPackets
	}
	for i, s := range c.Topo.Spines {
		rx := c.Net.Switch(s).RxPackets
		fmt.Printf("  S%d: %7d packets (%.0f%%)\n", i+1, rx, float64(rx)/float64(total)*100)
	}
	fmt.Println("\nexpected split: 25% / 50% / 25% — WCMP semantics with zero")
	fmt.Println("switch state, realized entirely at the network edge.")
}
