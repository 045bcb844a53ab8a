// Three-tier scaling: the paper's deployments are 2-tier Clos (§3.1),
// but the same label-switching idea extends to pod-based 3-tier
// fabrics — one spanning tree per core switch, flowcells sprayed over
// all of them. This example runs Presto vs ECMP across pods and shows
// per-core load balance.
//
//	go run ./examples/threetier
package main

import (
	"fmt"

	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

func main() {
	build := func(scheme cluster.Scheme) *cluster.Cluster {
		return cluster.New(cluster.Config{
			// 3 pods x (2 aggs + 2 leaves x 2 hosts) + 2 cores.
			Topology: topo.ThreeTierClos(3, 2, 2, 2, topo.LinkConfig{}),
			Scheme:   scheme,
			Seed:     11,
		})
	}

	for _, scheme := range []cluster.Scheme{cluster.ECMP, cluster.Presto} {
		c := build(scheme)
		n := c.Topo.NumHosts()
		// Cross-pod stride: host i -> host (i + hosts/3) mod hosts.
		var conns []*cluster.Conn
		for i := 0; i < n; i++ {
			conn := c.Dial(packet.HostID(i), packet.HostID((i+n/3)%n))
			conn.SetUnlimited(true)
			conns = append(conns, conn)
		}
		const dur = 80 * sim.Millisecond
		c.Run(dur)
		var total float64
		for _, conn := range conns {
			total += float64(conn.Delivered()) * 8 / dur.Seconds() / 1e9
		}
		fmt.Printf("%-7v %.2f Gbps/flow across pods", scheme, total/float64(n))
		if scheme == cluster.Presto {
			fmt.Printf("   per-core packets:")
			for _, core := range c.Topo.Cores {
				fmt.Printf(" %d", c.Net.Switch(core).RxPackets)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nPresto sprays flowcells over one spanning tree per core;")
	fmt.Println("cores carry near-identical load while ECMP collides flows.")
}
