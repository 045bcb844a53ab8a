package presto

// One benchmark per table and figure of the paper's evaluation. Each
// iteration runs the corresponding experiment on a reduced window and
// reports the headline metric(s) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. cmd/experiments runs
// the full-window versions and prints the paper-style tables.

import (
	"fmt"
	"testing"

	"presto/internal/sim"
)

func benchOpt(seed uint64) Options {
	return Options{
		Seed:     seed,
		Warmup:   20 * sim.Millisecond,
		Duration: 50 * sim.Millisecond,
	}
}

// BenchmarkFig1FlowletSizes regenerates Figure 1: flowlet size skew
// under competing flows with a 500 µs inactivity gap.
func BenchmarkFig1FlowletSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "fig1/competing=3", benchOpt(uint64(i)))
		b.ReportMetric(r.Metrics["largest_fraction"], "largest-flowlet-frac")
		b.ReportMetric(r.Metrics["flowlets"], "flowlets")
	}
}

// BenchmarkFig5GROReordering regenerates Figure 5: official vs Presto
// GRO under flowcell spraying.
func BenchmarkFig5GROReordering(b *testing.B) {
	for _, gro := range []string{"official", "presto"} {
		b.Run(gro, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, "fig5/gro="+gro, benchOpt(uint64(i)))
				b.ReportMetric(r.MeanTput, "Gbps")
				b.ReportMetric(r.Metrics["ooo_p90"], "ooo-p90")
				b.ReportMetric(r.Metrics["seg_kb_mean"], "seg-KB")
				b.ReportMetric(r.Metrics["cpu_util_pct"], "cpu%")
			}
		})
	}
}

// BenchmarkFig6CPUOverhead regenerates Figure 6: receiver CPU at line
// rate, Presto GRO vs official GRO without reordering.
func BenchmarkFig6CPUOverhead(b *testing.B) {
	for _, gro := range []string{"official", "presto"} {
		b.Run(gro, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, "fig6/gro="+gro, benchOpt(uint64(i)))
				b.ReportMetric(r.Metrics["cpu_pct"], "cpu%")
				b.ReportMetric(r.MeanTput, "Gbps")
			}
		})
	}
}

// BenchmarkFig7Scalability regenerates Figure 7: throughput vs path
// count for every system (8-path point; sweep via cmd/experiments).
func BenchmarkFig7Scalability(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig7/paths=8/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.MeanTput, "Gbps")
			}
		})
	}
}

// BenchmarkFig8ScalabilityRTT regenerates Figure 8: the RTT
// distribution at 8 paths.
func BenchmarkFig8ScalabilityRTT(b *testing.B) {
	for _, sys := range []System{SysECMP, SysPresto, SysOptimal} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig7/paths=8/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.RTT.Percentile(99), "rtt-p99-ms")
			}
		})
	}
}

// BenchmarkFig9LossFairness regenerates Figure 9: loss rate and
// fairness in the scalability benchmark.
func BenchmarkFig9LossFairness(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig7/paths=4/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.LossRate*100, "loss%")
				b.ReportMetric(r.Fairness, "jain")
			}
		})
	}
}

// BenchmarkFig10Oversubscription regenerates Figure 10: throughput
// under 4:1 oversubscription.
func BenchmarkFig10Oversubscription(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig10/flows=8/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.MeanTput, "Gbps")
			}
		})
	}
}

// BenchmarkFig11OversubRTT regenerates Figure 11: RTT under
// oversubscription.
func BenchmarkFig11OversubRTT(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig10/flows=8/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.RTT.Percentile(99), "rtt-p99-ms")
			}
		})
	}
}

// BenchmarkFig12OversubLossFairness regenerates Figure 12.
func BenchmarkFig12OversubLossFairness(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig10/flows=6/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.LossRate*100, "loss%")
				b.ReportMetric(r.Fairness, "jain")
			}
		})
	}
}

// BenchmarkFig13Flowlet regenerates Figure 13: flowlet switching
// (100/500 µs) vs Presto on stride.
func BenchmarkFig13Flowlet(b *testing.B) {
	for _, sys := range []System{SysFlowlet100, SysFlowlet500, SysPresto} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig13/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.MeanTput, "Gbps")
				b.ReportMetric(r.RTT.Percentile(99.9), "rtt-p999-ms")
			}
		})
	}
}

// BenchmarkFig14PerHop regenerates Figure 14: Presto end-to-end
// shadow MACs vs per-hop ECMP hashing of flowcells.
func BenchmarkFig14PerHop(b *testing.B) {
	for _, sys := range []System{SysPrestoECMP, SysPresto} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig14/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.MeanTput, "Gbps")
				b.ReportMetric(r.RTT.Percentile(99), "rtt-p99-ms")
			}
		})
	}
}

// BenchmarkFig15Workloads regenerates Figure 15: elephant throughput
// across the four synthetic workloads (stride shown per system;
// others via sub-benchmarks).
func BenchmarkFig15Workloads(b *testing.B) {
	for _, w := range []string{"shuffle", "random", "stride", "bijection"} {
		for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
			b.Run(fmt.Sprintf("%v/%v", w, sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := runFigure(b, fmt.Sprintf("fig15/wl=%v/sys=%v", w, sys), benchOpt(uint64(i)))
					b.ReportMetric(r.MeanTput, "Gbps")
				}
			})
		}
	}
}

// BenchmarkFig16MiceFCT regenerates Figure 16: the mice FCT tail per
// system on stride.
func BenchmarkFig16MiceFCT(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("fig16/wl=stride/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.FCT.Percentile(99.9), "fct-p999-ms")
			}
		})
	}
}

// BenchmarkTable1Trace regenerates Table 1: trace-driven mice FCT.
func BenchmarkTable1Trace(b *testing.B) {
	for _, sys := range []System{SysECMP, SysOptimal, SysPresto} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("table1/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.FCT.Percentile(99), "fct-p99-ms")
				b.ReportMetric(r.MeanTput, "eleph-Gbps")
			}
		})
	}
}

// BenchmarkTable2NorthSouth regenerates Table 2: east-west mice FCT
// under north-south cross traffic.
func BenchmarkTable2NorthSouth(b *testing.B) {
	for _, sys := range []System{SysECMP, SysMPTCP, SysPresto, SysOptimal} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, fmt.Sprintf("table2/sys=%v", sys), benchOpt(uint64(i)))
				b.ReportMetric(r.FCT.Percentile(99), "fct-p99-ms")
				b.ReportMetric(r.MeanTput, "Gbps")
			}
		})
	}
}

// BenchmarkFig17Failover regenerates Figure 17: per-stage throughput
// around a link failure.
func BenchmarkFig17Failover(b *testing.B) {
	for _, w := range FailoverWorkloads() {
		b.Run(w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runFigure(b, "fig17/wl="+w, benchOpt(uint64(i))).Metrics
				b.ReportMetric(r["symmetry_gbps"], "sym-Gbps")
				b.ReportMetric(r["failover_gbps"], "fo-Gbps")
				b.ReportMetric(r["weighted_gbps"], "wt-Gbps")
			}
		})
	}
}

// BenchmarkFig18FailoverRTT regenerates Figure 18: per-stage RTT.
func BenchmarkFig18FailoverRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runFigure(b, "fig18/wl=bijection", benchOpt(uint64(i))).Metrics
		b.ReportMetric(r["symmetry_rtt_ms_p99"], "sym-p99-ms")
		b.ReportMetric(r["failover_rtt_ms_p99"], "fo-p99-ms")
		b.ReportMetric(r["weighted_rtt_ms_p99"], "wt-p99-ms")
	}
}
