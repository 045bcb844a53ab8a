// GRO microbenchmark (§5, Figure 5): spray two flows' flowcells over
// two paths and receive them through official GRO versus Presto GRO.
// Official GRO suffers small segment flooding — tiny segments, high
// CPU, reordering exposed to TCP — while Presto GRO masks everything.
//
//	go run ./examples/groreorder
package main

import (
	"fmt"
	"os"

	"presto"
	"presto/internal/sim"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// figure runs one Figure 5 cell.
func figure(id string, opt presto.Options) presto.LoadResult {
	cell, err := presto.FigureCell(id)
	check(err)
	r, err := cell.Run(opt)
	check(err)
	return r
}

func main() {
	opt := presto.Options{
		Seed:     5,
		Warmup:   40 * sim.Millisecond,
		Duration: 150 * sim.Millisecond,
	}
	off := figure("fig5/gro=official", opt)
	pre := figure("fig5/gro=presto", opt)

	fmt.Println("two flows sprayed over two spine paths (Figure 4b topology):")
	fmt.Println()
	show := func(name string, r presto.LoadResult) {
		m := r.Metrics
		fmt.Printf("%s:\n", name)
		fmt.Printf("  out-of-order segments seen by TCP: p50=%.0f p90=%.0f max=%.0f\n",
			m["ooo_p50"], m["ooo_p90"], m["ooo_max"])
		fmt.Printf("  pushed segment size: mean %.1f KB (p90 %.1f KB)\n",
			m["seg_kb_mean"], m["seg_kb_p90"])
		fmt.Printf("  goodput %.2f Gbps at %.0f%% receiver CPU\n\n", r.MeanTput, m["cpu_util_pct"])
	}
	show("Official GRO", off)
	show("Presto GRO (Algorithm 2)", pre)
	fmt.Println("paper's measured points: official 4.6 Gbps @ 86% CPU,")
	fmt.Println("presto 9.3 Gbps @ 69% CPU, reordering fully masked.")

	none, err := presto.GRODisabledCell().Run(opt)
	check(err)
	fmt.Printf("\nfor reference, GRO disabled entirely: %.2f Gbps @ %.0f%% CPU\n", none.MeanTput, none.Metrics["cpu_util_pct"])
	fmt.Println("(paper cites 5.7-7.1 Gbps at 100% CPU)")
}
