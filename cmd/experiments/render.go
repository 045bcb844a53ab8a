package main

// Paper-style rendering of a campaign report: each experiment keeps
// the table/figure layout of the paper's evaluation, but every number
// now comes from the report's seed-aggregated envelopes, so the same
// bytes appear at any -parallel level. With -seeds > 1 values render
// as "mean ±stddev".

import (
	"fmt"
	"io"
	"strings"

	"presto"
	"presto/internal/campaign"
	"presto/internal/metrics"
)

// rx wraps a report with the lookup helpers the renderers share.
type rx struct {
	r *campaign.Report
}

// env returns the envelope for (cell, metric); zero when absent (a
// failed cell renders as 0 rather than aborting the document).
func (x rx) env(id, metric string) campaign.Envelope {
	e, _ := x.r.Envelope(id, metric)
	return e
}

// val renders an envelope mean with prec decimals, appending ±stddev
// for seed-replicated runs.
func (x rx) val(id, metric string, prec int) string {
	e := x.env(id, metric)
	s := fmt.Sprintf("%.*f", prec, e.Mean)
	if e.N > 1 {
		s += fmt.Sprintf("±%.*f", prec, e.Stddev)
	}
	return s
}

// pctRow renders the familiar percentile row from prefixed metrics
// (prefix_p50 ... prefix_max, prefix_n).
func (x rx) pctRow(id, prefix string) string {
	n := x.env(id, prefix+"_n")
	if n.Mean == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f (n=%.0f)",
		x.env(id, prefix+"_p50").Mean, x.env(id, prefix+"_p90").Mean,
		x.env(id, prefix+"_p99").Mean, x.env(id, prefix+"_p999").Mean,
		x.env(id, prefix+"_max").Mean, n.Mean)
}

// dist returns a cell's merged sample distribution (nil-safe).
func (x rx) dist(id, name string) *metrics.Dist {
	if c := x.r.Cell(id); c != nil {
		return c.Dist(name)
	}
	return nil
}

// renderReport writes the paper-style result document for every
// experiment present in the report, in campaign order.
func renderReport(w io.Writer, report *campaign.Report, seeds int) {
	x := rx{r: report}
	renderers := map[string]func(io.Writer, rx){
		"fig1": renderFig1, "fig5": renderFig5, "fig6": renderFig6,
		"fig7": renderFig7, "fig8": renderFig8, "fig9": renderFig9,
		"fig10": renderFig10, "fig11": renderFig11, "fig12": renderFig12,
		"fig13": renderFig13, "fig14": renderFig14, "fig15": renderFig15,
		"fig16": renderFig16, "table1": renderTable1, "table2": renderTable2,
		"fig17": renderFig17, "fig18": renderFig18, "ablations": renderAblations,
		"scheme-matrix": renderSchemeMatrix,
	}
	for _, exp := range presto.ExperimentsInReport(report) {
		fmt.Fprintf(w, "==== %s: %s ====\n", exp, presto.CampaignExperimentTitle(exp))
		if seeds > 1 {
			fmt.Fprintf(w, "(%d-seed envelopes: mean ±stddev)\n", seeds)
		}
		if render, ok := renderers[exp]; ok {
			render(w, x)
		} else {
			renderGeneric(w, x, exp)
		}
		fmt.Fprintln(w)
	}
}

// renderGeneric is the fallback for experiments without a bespoke
// layout.
func renderGeneric(w io.Writer, x rx, exp string) {
	var cells []*campaign.CellResult
	for i := range x.r.Cells {
		if x.r.Cells[i].Experiment == exp {
			cells = append(cells, &x.r.Cells[i])
		}
	}
	metricsTable(w, cells)
}

func renderFig1(w io.Writer, x rx) {
	for _, competing := range []int{1, 2, 3, 4, 6, 8} {
		id := fmt.Sprintf("fig1/competing=%d", competing)
		fmt.Fprintf(w, "competing=%d flowlets=%s largest-fraction=%s top sizes (MB): %s %s %s\n",
			competing, x.val(id, "flowlets", 0), x.val(id, "largest_fraction", 2),
			x.val(id, "top1_mb", 2), x.val(id, "top2_mb", 2), x.val(id, "top3_mb", 2))
	}
}

func renderFig5(w io.Writer, x rx) {
	off, pre := "fig5/gro=official", "fig5/gro=presto"
	fmt.Fprintln(w, "(a) out-of-order segment count exposed to TCP:")
	fmt.Fprintf(w, "  Official GRO: %s\n", x.pctRow(off, "ooo"))
	fmt.Fprintf(w, "  Presto GRO:   %s\n", x.pctRow(pre, "ooo"))
	fmt.Fprintln(w, "(b) pushed segment size (KB):")
	fmt.Fprintf(w, "  Official GRO: mean=%s %s\n", x.val(off, "seg_kb_mean", 1), x.pctRow(off, "seg_kb"))
	fmt.Fprintf(w, "  Presto GRO:   mean=%s %s\n", x.val(pre, "seg_kb_mean", 1), x.pctRow(pre, "seg_kb"))
	fmt.Fprintf(w, "throughput: official=%s Gbps @ %s%% CPU, presto=%s Gbps @ %s%% CPU\n",
		x.val(off, "tput_gbps", 2), x.val(off, "cpu_util_pct", 0),
		x.val(pre, "tput_gbps", 2), x.val(pre, "cpu_util_pct", 0))
	fmt.Fprintln(w, "(paper: official 4.6 Gbps @ 86%, presto 9.3 Gbps @ 69%)")
}

func renderFig6(w io.Writer, x rx) {
	fmt.Fprintf(w, "Official GRO (no reordering): mean CPU %s%% at %s Gbps\n",
		x.val("fig6/gro=official", "cpu_pct", 1), x.val("fig6/gro=official", "tput_gbps", 2))
	fmt.Fprintf(w, "Presto GRO (flowcell spraying): mean CPU %s%% at %s Gbps\n",
		x.val("fig6/gro=presto", "cpu_pct", 1), x.val("fig6/gro=presto", "tput_gbps", 2))
	delta := x.env("fig6/gro=presto", "cpu_pct").Mean - x.env("fig6/gro=official", "cpu_pct").Mean
	fmt.Fprintf(w, "overhead: +%.1f%% (paper: +6%%)\n", delta)
}

var scaleSystems = []presto.System{presto.SysECMP, presto.SysMPTCP, presto.SysPresto, presto.SysOptimal}

func renderFig7(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"paths", "ECMP", "MPTCP", "Presto", "Optimal"}}
	for paths := 2; paths <= 8; paths++ {
		row := []string{fmt.Sprint(paths)}
		for _, sys := range scaleSystems {
			row = append(row, x.val(fmt.Sprintf("fig7/paths=%d/sys=%v", paths, sys), "tput_gbps", 2))
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(w, "avg flow throughput (Gbps):\n"+tb.String())
}

func renderFig8(w io.Writer, x rx) {
	fmt.Fprintln(w, "RTT (ms) in the 8-path scalability benchmark:")
	for _, sys := range scaleSystems {
		id := fmt.Sprintf("fig8/sys=%v", sys)
		fmt.Fprintf(w, "  %-8v %s\n", sys, x.pctRow(id, "rtt_ms"))
		fmt.Fprint(w, metrics.RenderQuantileBars(x.dist(id, "rtt_ms"), []float64{50, 90, 99, 99.9}, 40, "ms"))
	}
}

func renderFig9(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"paths", "scheme", "loss%", "fairness"}}
	for _, paths := range []int{2, 4, 8} {
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig9/paths=%d/sys=%v", paths, sys)
			tb.AddRow(fmt.Sprint(paths), sys.String(), x.val(id, "loss_pct", 4), x.val(id, "fairness", 3))
		}
	}
	fmt.Fprint(w, tb.String())
}

func renderFig10(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"oversub", "ECMP", "MPTCP", "Presto", "Optimal"}}
	for _, flows := range []int{2, 4, 6, 8} {
		row := []string{fmt.Sprintf("%.1f", float64(flows)/2)}
		for _, sys := range scaleSystems {
			row = append(row, x.val(fmt.Sprintf("fig10/flows=%d/sys=%v", flows, sys), "tput_gbps", 2))
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(w, "avg flow throughput (Gbps):\n"+tb.String())
}

func renderFig11(w io.Writer, x rx) {
	fmt.Fprintln(w, "RTT (ms) at oversubscription 4:1 (8 flows, 2 spines):")
	for _, sys := range []presto.System{presto.SysECMP, presto.SysMPTCP, presto.SysPresto} {
		fmt.Fprintf(w, "  %-8v %s\n", sys, x.pctRow(fmt.Sprintf("fig11/sys=%v", sys), "rtt_ms"))
	}
}

func renderFig12(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"oversub", "scheme", "loss%", "fairness"}}
	for _, flows := range []int{2, 4, 8} {
		for _, sys := range []presto.System{presto.SysECMP, presto.SysMPTCP, presto.SysPresto} {
			id := fmt.Sprintf("fig12/flows=%d/sys=%v", flows, sys)
			tb.AddRow(fmt.Sprintf("%.1f", float64(flows)/2), sys.String(), x.val(id, "loss_pct", 4), x.val(id, "fairness", 3))
		}
	}
	fmt.Fprint(w, tb.String())
}

func renderFig13(w io.Writer, x rx) {
	fmt.Fprintln(w, "stride workload, flowlet switching vs Presto:")
	for _, sys := range []presto.System{presto.SysFlowlet100, presto.SysFlowlet500, presto.SysPresto} {
		id := fmt.Sprintf("fig13/sys=%v", sys)
		fmt.Fprintf(w, "  %-14v tput=%s Gbps  RTT %s\n", sys, x.val(id, "tput_gbps", 2), x.pctRow(id, "rtt_ms"))
	}
	fmt.Fprintln(w, "(paper: 4.3 / 7.6 / 9.3 Gbps; Presto cuts 99.9p RTT 2-3.6x)")
}

func renderFig14(w io.Writer, x rx) {
	for _, sys := range []presto.System{presto.SysPrestoECMP, presto.SysPresto} {
		id := fmt.Sprintf("fig14/sys=%v", sys)
		fmt.Fprintf(w, "  %-12v tput=%s Gbps  RTT %s\n", sys, x.val(id, "tput_gbps", 2), x.pctRow(id, "rtt_ms"))
	}
	fmt.Fprintln(w, "(paper: Presto+ECMP 8.9 vs Presto 9.3 Gbps, worse tail RTT)")
}

func renderFig15(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"workload", "ECMP", "MPTCP", "Presto", "Optimal"}}
	for _, wl := range []string{"shuffle", "random", "stride", "bijection"} {
		row := []string{wl}
		for _, sys := range scaleSystems {
			row = append(row, x.val(fmt.Sprintf("fig15/wl=%v/sys=%v", wl, sys), "tput_gbps", 2))
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(w, "elephant throughput (Gbps):\n"+tb.String())
}

func renderFig16(w io.Writer, x rx) {
	for _, wl := range []string{"stride", "bijection", "shuffle"} {
		fmt.Fprintf(w, "mice FCT (ms), %v workload:\n", wl)
		for _, sys := range scaleSystems {
			id := fmt.Sprintf("fig16/wl=%v/sys=%v", wl, sys)
			fmt.Fprintf(w, "  %-8v %s timeouts=%s\n", sys, x.pctRow(id, "fct_ms"), x.val(id, "mice_timeouts", 0))
		}
	}
}

// normalizedRow renders a percentile row normalized to the ECMP cell's
// envelope means, the paper's Table 1/2 presentation.
func normalizedRow(x rx, ids []string, baseID, prefix string, p string) []string {
	base := x.env(baseID, prefix+"_"+p).Mean
	row := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == baseID {
			row = append(row, "1.0")
			continue
		}
		if x.env(id, prefix+"_n").Mean == 0 {
			row = append(row, "n/a")
			continue
		}
		v := x.env(id, prefix+"_"+p).Mean
		if base > 0 {
			row = append(row, fmt.Sprintf("%+.0f%%", (v/base-1)*100))
		} else {
			row = append(row, "n/a")
		}
	}
	return row
}

var pctKeys = []struct{ label, key string }{
	{"50%", "p50"}, {"90%", "p90"}, {"99%", "p99"}, {"99.9%", "p999"},
}

func renderTable1(w io.Writer, x rx) {
	ids := []string{"table1/sys=ECMP", "table1/sys=Optimal", "table1/sys=Presto"}
	tb := metrics.Table{Header: []string{"percentile", "ECMP", "Optimal", "Presto"}}
	for _, p := range pctKeys {
		tb.AddRow(append([]string{p.label}, normalizedRow(x, ids, ids[0], "fct_ms", p.key)...)...)
	}
	fmt.Fprint(w, "mice (<100KB) FCT normalized to ECMP (paper: Presto -9/-32/-56/-60%):\n"+tb.String())
	fmt.Fprintf(w, "elephant tput (Gbps): ECMP=%s Optimal=%s Presto=%s\n",
		x.val(ids[0], "tput_gbps", 2), x.val(ids[1], "tput_gbps", 2), x.val(ids[2], "tput_gbps", 2))
}

func renderTable2(w io.Writer, x rx) {
	systems := []presto.System{presto.SysECMP, presto.SysMPTCP, presto.SysPresto, presto.SysOptimal}
	ids := make([]string, len(systems))
	for i, sys := range systems {
		ids[i] = fmt.Sprintf("table2/sys=%v", sys)
	}
	tb := metrics.Table{Header: []string{"percentile", "ECMP", "MPTCP", "Presto", "Optimal"}}
	for _, p := range pctKeys {
		tb.AddRow(append([]string{p.label}, normalizedRow(x, ids, ids[0], "fct_ms", p.key)...)...)
	}
	fmt.Fprint(w, "east-west mice FCT normalized to ECMP (paper: Presto -20/-79/-86/-87%):\n"+tb.String())
	fmt.Fprintf(w, "east-west tput (Gbps): ")
	for i, sys := range systems {
		fmt.Fprintf(w, "%v=%s ", sys, x.val(ids[i], "tput_gbps", 2))
	}
	fmt.Fprintln(w, "\n(paper: 5.7 / 7.4 / 8.2 / 8.9 Gbps)")
}

func renderFig17(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"workload", "symmetry", "failover", "weighted"}}
	for _, wl := range presto.FailoverWorkloads() {
		id := "fig17/wl=" + wl
		tb.AddRow(wl, x.val(id, "symmetry_gbps", 2), x.val(id, "failover_gbps", 2), x.val(id, "weighted_gbps", 2))
	}
	fmt.Fprint(w, "Presto throughput per failure stage (Gbps):\n"+tb.String())
}

func renderFig18(w io.Writer, x rx) {
	id := "fig18/wl=bijection"
	fmt.Fprintln(w, "Presto RTT (ms) per failure stage, random bijection:")
	fmt.Fprintf(w, "  symmetry: %s\n", x.pctRow(id, "symmetry_rtt_ms"))
	fmt.Fprintf(w, "  failover: %s\n", x.pctRow(id, "failover_rtt_ms"))
	fmt.Fprintf(w, "  weighted: %s\n", x.pctRow(id, "weighted_rtt_ms"))
}

func renderAblations(w io.Writer, x rx) {
	fmt.Fprintln(w, "flowcell size (stride, Gbps/flow):")
	for _, kb := range []int{16, 32, 64, 128, 256} {
		fmt.Fprintf(w, "  %3d KB: %s\n", kb, x.val(fmt.Sprintf("ablations/flowcell_kb=%d", kb), "tput_gbps", 2))
	}
	fmt.Fprintln(w, "GRO hold multiplier alpha (stride, Gbps/flow, false-loss fires):")
	for _, a := range []float64{0.5, 1, 2, 4} {
		id := fmt.Sprintf("ablations/gro_alpha=%g", a)
		fmt.Fprintf(w, "  alpha=%-4g %s Gbps  %s timeouts\n", a, x.val(id, "tput_gbps", 2), x.val(id, "timeout_fires", 0))
	}
	fmt.Fprintln(w, "switch buffer depth (stride, Gbps/flow, loss%):")
	for _, kb := range []int{256, 512, 2048, 8192} {
		id := fmt.Sprintf("ablations/buffer_kb=%d", kb)
		fmt.Fprintf(w, "  %4d KB: %s Gbps  %s%% loss\n", kb, x.val(id, "tput_gbps", 2), x.val(id, "loss_pct", 4))
	}
	fmt.Fprintln(w, "congestion control (stride, Gbps/flow):")
	for _, cc := range []string{"cubic", "reno", "dctcp"} {
		fmt.Fprintf(w, "  %-6s %s\n", cc, x.val("ablations/cc="+cc, "tput_gbps", 2))
	}
	fmt.Fprintln(w, "label mode (stride, Gbps/flow, leaf rules):")
	for _, mode := range []string{"per-host", "tunnel"} {
		id := "ablations/labels=" + mode
		fmt.Fprintf(w, "  %-8s %s Gbps  %s rules\n", mode, x.val(id, "tput_gbps", 2), x.val(id, "leaf_rules", 0))
	}
}

// renderSchemeMatrix lays out the scheme × workload × topology grid:
// one table per workload, schemes as rows, and per-topology mean FCT,
// p99 FCT, and elephant throughput as columns. Rows come from the
// cells actually present, so partial matrices (-scheme subsets,
// smoke grids) render without empty rows.
func renderSchemeMatrix(w io.Writer, x rx) {
	var schemes []string
	seen := map[string]bool{}
	for i := range x.r.Cells {
		c := &x.r.Cells[i]
		if c.Experiment != "scheme-matrix" {
			continue
		}
		name := strings.TrimPrefix(c.ID, "scheme-matrix/scheme=")
		if name == c.ID {
			continue
		}
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if !seen[name] {
			seen[name] = true
			schemes = append(schemes, name)
		}
	}
	topos := presto.SchemeMatrixTopos()
	for _, wl := range presto.SchemeMatrixWorkloads() {
		any := false
		tb := metrics.Table{Header: []string{"scheme"}}
		for _, tp := range topos {
			tb.Header = append(tb.Header,
				tp+" FCT-mean(ms)", tp+" FCT-p99(ms)", tp+" tput(Gbps)")
		}
		for _, s := range schemes {
			row := []string{s}
			present := false
			for _, tp := range topos {
				id := presto.SchemeMatrixCellID(s, wl, tp)
				if x.r.Cell(id) != nil {
					present = true
				}
				row = append(row, x.val(id, "fct_ms_mean", 3),
					x.val(id, "fct_ms_p99", 3), x.val(id, "tput_gbps", 2))
			}
			if present {
				any = true
				tb.AddRow(row...)
			}
		}
		if any {
			fmt.Fprintf(w, "workload %s:\n%s", wl, tb.String())
		}
	}
}
