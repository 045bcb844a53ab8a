// Failover walkthrough (§3.3, Figures 17/18): run Presto elephants
// across the testbed, kill the S1-L1 link mid-run, and watch the
// three stages — black hole, hardware fast failover (label rewrite to
// a backup tree), and the controller's weighted multipathing update.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"strings"

	"presto"
	"presto/internal/campaign"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

func main() {
	// Figure 17 is a row of the experiment table; a request selects it
	// and the report's cells come back in the paper's workload order.
	spec, err := presto.Campaign(campaign.Request{
		Experiments: "fig17",
		Seed:        7,
		Warmup:      wspec.Duration(40 * sim.Millisecond),
		Duration:    wspec.Duration(240 * sim.Millisecond),
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	report, err := campaign.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	if failed := report.FailedReplicas(); len(failed) > 0 {
		log.Fatal(failed[0].Err)
	}
	for i := range report.Cells {
		c := &report.Cells[i]
		m := func(name string) float64 { return c.Envelopes[name].Mean }
		fmt.Printf("%-10v symmetry=%.2f Gbps  failover=%.2f Gbps  weighted=%.2f Gbps\n",
			strings.TrimPrefix(c.ID, "fig17/wl="), m("symmetry_gbps"), m("failover_gbps"), m("weighted_gbps"))
		fmt.Printf("           RTT p99: %.2f -> %.2f -> %.2f ms\n",
			m("symmetry_rtt_ms_p99"), m("failover_rtt_ms_p99"), m("weighted_rtt_ms_p99"))
	}
	fmt.Println()
	fmt.Println("Stage 1 uses all four spanning trees. After the S1-L1 link dies,")
	fmt.Println("switches locally rewrite tree-0 labels to a backup tree (stage 2);")
	fmt.Println("50 ms later the controller prunes tree 0 from the affected")
	fmt.Println("senders' label lists and traffic rebalances (stage 3).")
}
