// Trace-driven workload (§6, Table 1) from a preset's spec file:
// the `mice-heavy` spec mixes a Poisson stream of heavy-tailed mice
// (empirical CDC-style CDF) with Pareto elephants, all to random
// cross-rack destinations. Presto's flowcell spraying flattens the
// mice FCT tail that ECMP's elephant collisions create.
//
// The same spec drives every front-end (`experiments -workload
// mice-heavy` or the file's path, a prestod job), and cmd/capture
// can record any run as a replay spec whose trace client starts the
// same flows again.
//
//	go run ./examples/tracedriven       # from the repository root
package main

import (
	"fmt"
	"os"

	"presto"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

func main() {
	ws, err := wspec.Load("internal/workload/spec/presets/mice-heavy.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "run from the repository root:", err)
		os.Exit(1)
	}
	opt := presto.Options{
		Seed:     3,
		Warmup:   30 * sim.Millisecond,
		Duration: 250 * sim.Millisecond,
	}
	results := make(map[string]presto.LoadResult)
	for _, sys := range []string{"ecmp", "presto", "optimal"} {
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
		results[sys] = r
	}

	base := results["ecmp"].FCT
	fmt.Printf("flow completion time, workload %s (spec %s):\n", ws.Name, ws.Hash())
	fmt.Printf("%-12s %10s %10s %10s\n", "percentile", "ECMP(ms)", "Presto", "Optimal")
	for _, p := range []float64{50, 90, 99, 99.9} {
		b := base.Percentile(p)
		rel := func(sys string) string {
			if b <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%+.0f%%", (results[sys].FCT.Percentile(p)/b-1)*100)
		}
		fmt.Printf("%-12g %10.3f %10s %10s\n", p, b, rel("presto"), rel("optimal"))
	}
	fmt.Println("\n(paper, Table 1: Presto cuts the 99th/99.9th percentile by 56%/60%)")
}
