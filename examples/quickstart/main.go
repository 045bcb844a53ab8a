// Quickstart: load the `elephants` preset's spec file (the
// paper's stride pattern as data, not code), run it on the 16-host
// testbed under ECMP and under Presto, and compare throughput and
// tail latency — the headline result of the paper in ~30 lines.
//
//	go run ./examples/quickstart        # from the repository root
package main

import (
	"fmt"
	"os"
	"time"

	"presto"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

func main() {
	ws, err := wspec.Load("internal/workload/spec/presets/elephants.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "run from the repository root:", err)
		os.Exit(1)
	}
	opt := presto.Options{
		Seed:     42,
		Warmup:   50 * sim.Millisecond,
		Duration: 150 * sim.Millisecond,
	}

	fmt.Printf("workload %s (spec %s) on a 4-spine/4-leaf/16-host 10G Clos:\n", ws.Name, ws.Hash())
	// Scheme names are case-insensitive; these spellings are the ones
	// cell IDs and the paper's tables use.
	for _, sys := range []string{"ECMP", "Presto", "Optimal"} {
		start := time.Now()
		cell, err := presto.SpecCell(sys, ws)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r, err := cell.Run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-8v  %.2f Gbps/flow (fairness %.3f)   RTT p99.9 = %.2f ms   (%v)\n",
			sys, r.MeanTput, r.Fairness, r.RTT.Percentile(99.9),
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Println("Presto sprays 64 KB flowcells over disjoint spanning trees and")
	fmt.Println("masks the resulting reordering in the receive-offload layer, so")
	fmt.Println("it tracks the optimal non-blocking switch; ECMP loses throughput")
	fmt.Println("to hash collisions and its latency tail to the induced queueing.")
	fmt.Println()
	fmt.Println("The workload is data, not code: copy a preset from")
	fmt.Println("internal/workload/spec/presets/ or write your own")
	fmt.Println("presto-workload/1 spec and hand it to any front-end via")
	fmt.Println("-workload, or to prestod in a job request.")
}
