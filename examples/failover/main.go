// Failover walkthrough (§3.3, Figures 17/18): run Presto elephants
// across the testbed, kill the S1-L1 link mid-run, and watch the
// three stages — black hole, hardware fast failover (label rewrite to
// a backup tree), and the controller's weighted multipathing update.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"os"

	"presto"
	"presto/internal/sim"
)

func main() {
	opt := presto.Options{
		Seed:     7,
		Warmup:   40 * sim.Millisecond,
		Duration: 240 * sim.Millisecond,
	}
	for _, w := range presto.FailoverWorkloads() {
		cell, err := presto.FigureCell("fig17/wl=" + w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r, err := cell.Run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := r.Metrics
		fmt.Printf("%-10v symmetry=%.2f Gbps  failover=%.2f Gbps  weighted=%.2f Gbps\n",
			w, m["symmetry_gbps"], m["failover_gbps"], m["weighted_gbps"])
		fmt.Printf("           RTT p99: %.2f -> %.2f -> %.2f ms\n",
			m["symmetry_rtt_ms_p99"], m["failover_rtt_ms_p99"], m["weighted_rtt_ms_p99"])
	}
	fmt.Println()
	fmt.Println("Stage 1 uses all four spanning trees. After the S1-L1 link dies,")
	fmt.Println("switches locally rewrite tree-0 labels to a backup tree (stage 2);")
	fmt.Println("50 ms later the controller prunes tree 0 from the affected")
	fmt.Println("senders' label lists and traffic rebalances (stage 3).")
}
