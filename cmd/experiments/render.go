package main

// Paper-style rendering of a campaign report: each experiment keeps
// the table/figure layout of the paper's evaluation, but every number
// now comes from the report's seed-aggregated envelopes, so the same
// bytes appear at any -parallel level. With -seeds > 1 values render
// as "mean ±stddev".

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"presto"
	"presto/internal/campaign"
	"presto/internal/metrics"
)

// rx wraps a report with the lookup helpers the renderers share. Rows
// and columns come from the report's cells in campaign order (cell IDs
// are "exp/<key>=<value>/.../sys=<system>"), never from a second copy
// of the sweeps, so a partial or -scheme-restricted run renders the
// rows it has.
type rx struct {
	r *campaign.Report
}

// cells returns the IDs of exp's cells in campaign order.
func (x rx) cells(exp string) []string {
	var ids []string
	for i := range x.r.Cells {
		if x.r.Cells[i].Experiment == exp {
			ids = append(ids, x.r.Cells[i].ID)
		}
	}
	return ids
}

// param returns the value of key in a cell ID ("" when absent):
// param("fig7/paths=4/sys=ECMP", "paths") is "4".
func param(id, key string) string {
	for _, part := range strings.Split(id, "/") {
		if v, ok := strings.CutPrefix(part, key+"="); ok {
			return v
		}
	}
	return ""
}

// values returns the distinct values of key among ids, in order.
func values(ids []string, key string) []string {
	var out []string
	for _, id := range ids {
		if v := param(id, key); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// pivot lays exp out as a table with one row per value of rowKey
// (rendered by label) and one column per system.
func pivot(exp, rowKey, header string, label func(string) string, title string) func(io.Writer, rx) {
	return func(w io.Writer, x rx) {
		ids := x.cells(exp)
		systems := values(ids, "sys")
		tb := metrics.Table{Header: append([]string{header}, systems...)}
		for _, row := range values(ids, rowKey) {
			cols := []string{label(row)}
			for _, sys := range systems {
				cols = append(cols, x.val(fmt.Sprintf("%s/%s=%s/sys=%s", exp, rowKey, row, sys), "tput_gbps", 2))
			}
			tb.AddRow(cols...)
		}
		fmt.Fprint(w, title+"\n"+tb.String())
	}
}

// lossTable is the long form of Figures 9 and 12: one row per cell
// with its sweep point, system, loss rate and fairness.
func lossTable(exp, rowKey, header string, label func(string) string) func(io.Writer, rx) {
	return func(w io.Writer, x rx) {
		tb := metrics.Table{Header: []string{header, "scheme", "loss%", "fairness"}}
		for _, id := range x.cells(exp) {
			tb.AddRow(label(param(id, rowKey)), param(id, "sys"), x.val(id, "loss_pct", 4), x.val(id, "fairness", 3))
		}
		fmt.Fprint(w, tb.String())
	}
}

// perSystem prints title, one line per cell of exp — the system padded
// to width, then row's columns — and the paper's numbers as trailer
// (empty title or trailer prints nothing).
func perSystem(exp, title string, width int, row func(x rx, id string) string, trailer string) func(io.Writer, rx) {
	return func(w io.Writer, x rx) {
		fmt.Fprint(w, title)
		for _, id := range x.cells(exp) {
			fmt.Fprintf(w, "  %-*v %s\n", width, param(id, "sys"), row(x, id))
		}
		fmt.Fprint(w, trailer)
	}
}

func rttRow(x rx, id string) string { return x.pctRow(id, "rtt_ms") }

func tputRTTRow(x rx, id string) string {
	return fmt.Sprintf("tput=%s Gbps  RTT %s", x.val(id, "tput_gbps", 2), x.pctRow(id, "rtt_ms"))
}

// oversub renders a flows-per-leaf sweep point as the paper's
// oversubscription ratio (two spines: flows/2).
func oversub(flows string) string {
	n, _ := strconv.Atoi(flows)
	return fmt.Sprintf("%.1f", float64(n)/2)
}

func same(s string) string { return s }

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

// renderers maps an experiment to its paper-style layout; anything
// else gets metricsTable.
var renderers = map[string]func(io.Writer, rx){
	"fig1": renderFig1, "fig5": renderFig5, "fig6": renderFig6,
	"fig7": pivot("fig7", "paths", "paths", same, "avg flow throughput (Gbps):"),
	"fig8": perSystem("fig8", "RTT (ms) in the 8-path scalability benchmark:\n", 8, func(x rx, id string) string {
		bars := metrics.RenderQuantileBars(x.r.Cell(id).Dist("rtt_ms"), []float64{50, 90, 99, 99.9}, 40, "ms")
		return rttRow(x, id) + "\n" + strings.TrimSuffix(bars, "\n")
	}, ""),
	"fig9":  lossTable("fig9", "paths", "paths", same),
	"fig10": pivot("fig10", "flows", "oversub", oversub, "avg flow throughput (Gbps):"),
	"fig11": perSystem("fig11", "RTT (ms) at oversubscription 4:1 (8 flows, 2 spines):\n", 8, rttRow, ""),
	"fig12": lossTable("fig12", "flows", "oversub", oversub),
	"fig13": perSystem("fig13", "stride workload, flowlet switching vs Presto:\n", 14, tputRTTRow,
		"(paper: 4.3 / 7.6 / 9.3 Gbps; Presto cuts 99.9p RTT 2-3.6x)\n"),
	"fig14": perSystem("fig14", "", 12, tputRTTRow, "(paper: Presto+ECMP 8.9 vs Presto 9.3 Gbps, worse tail RTT)\n"),
	"fig15": pivot("fig15", "wl", "workload", same, "elephant throughput (Gbps):"),
	"fig16": renderFig16, "fig17": renderFig17,
	"table1": normalized("table1", "mice (<100KB) FCT normalized to ECMP (paper: Presto -9/-32/-56/-60%):\n",
		"elephant tput (Gbps): ", "\n"),
	"table2": normalized("table2", "east-west mice FCT normalized to ECMP (paper: Presto -20/-79/-86/-87%):\n",
		"east-west tput (Gbps): ", " \n(paper: 5.7 / 7.4 / 8.2 / 8.9 Gbps)\n"), "fig18": renderFig18, "ablations": renderAblations,
	"scheme-matrix": renderSchemeMatrix,
}

// renderReport writes the paper-style result document for every
// experiment present in the report, in campaign order.
func renderReport(w io.Writer, report *campaign.Report) {
	x := rx{r: report}
	var seen []string
	for i := range report.Cells {
		exp := report.Cells[i].Experiment
		if slices.Contains(seen, exp) {
			continue
		}
		seen = append(seen, exp)
		title := presto.CampaignExperimentTitle(exp)
		if title == "" {
			// Not a table row: a -workload run, whose report is named
			// "workload-spec/<spec name>".
			_, title, _ = strings.Cut(report.Name, "/")
		}
		fmt.Fprintf(w, "==== %s: %s ====\n", exp, title)
		if n := len(report.Seeds); n > 1 {
			fmt.Fprintf(w, "(%d-seed envelopes: mean ±stddev)\n", n)
		}
		if render, ok := renderers[exp]; ok {
			render(w, x)
		} else {
			metricsTable(w, x, exp)
		}
		fmt.Fprintln(w)
	}
}

// metricsTable is the generic layout for experiments without a bespoke
// one: a row per cell × metric envelope.
func metricsTable(w io.Writer, x rx, exp string) {
	tb := metrics.Table{Header: []string{"cell", "metric", "value"}}
	for _, id := range x.cells(exp) {
		c := x.r.Cell(id)
		names := make([]string, 0, len(c.Envelopes))
		for k := range c.Envelopes {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			tb.AddRow(strings.TrimPrefix(id, exp+"/"), k, c.Envelopes[k].String())
		}
	}
	fmt.Fprint(w, tb.String())
}

func renderFig1(w io.Writer, x rx) {
	for _, id := range x.cells("fig1") {
		fmt.Fprintf(w, "competing=%s flowlets=%s largest-fraction=%s top sizes (MB): %s %s %s\n",
			param(id, "competing"), x.val(id, "flowlets", 0), x.val(id, "largest_fraction", 2),
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

func renderFig16(w io.Writer, x rx) {
	wl := ""
	for _, id := range x.cells("fig16") {
		if v := param(id, "wl"); v != wl {
			wl = v
			fmt.Fprintf(w, "mice FCT (ms), %v workload:\n", wl)
		}
		fmt.Fprintf(w, "  %-8v %s timeouts=%s\n", param(id, "sys"), x.pctRow(id, "fct_ms"), x.val(id, "mice_timeouts", 0))
	}
}

var pctKeys = []struct{ label, key string }{
	{"50%", "p50"}, {"90%", "p90"}, {"99%", "p99"}, {"99.9%", "p999"},
}

// normalized is the paper's Table 1/2 presentation: mice FCT
// percentiles of exp's cells normalized to the first one (ECMP), one
// column per system, then every system's elephant throughput.
func normalized(exp, title, tputLabel, trailer string) func(io.Writer, rx) {
	return func(w io.Writer, x rx) {
		ids := x.cells(exp)
		tb := metrics.Table{Header: append([]string{"percentile"}, values(ids, "sys")...)}
		for _, p := range pctKeys {
			base := x.env(ids[0], "fct_ms_"+p.key).Mean
			row := []string{p.label, "1.0"}
			for _, id := range ids[1:] {
				rel := "n/a"
				if base > 0 && x.env(id, "fct_ms_n").Mean != 0 {
					rel = fmt.Sprintf("%+.0f%%", (x.env(id, "fct_ms_"+p.key).Mean/base-1)*100)
				}
				row = append(row, rel)
			}
			tb.AddRow(row...)
		}
		tputs := make([]string, len(ids))
		for i, id := range ids {
			tputs[i] = param(id, "sys") + "=" + x.val(id, "tput_gbps", 2)
		}
		fmt.Fprint(w, title+tb.String()+tputLabel+strings.Join(tputs, " ")+trailer)
	}
}

func renderFig17(w io.Writer, x rx) {
	tb := metrics.Table{Header: []string{"workload", "symmetry", "failover", "weighted"}}
	for _, id := range x.cells("fig17") {
		tb.AddRow(param(id, "wl"), x.val(id, "symmetry_gbps", 2), x.val(id, "failover_gbps", 2), x.val(id, "weighted_gbps", 2))
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
	// sweep prints title and one line per cell that sweeps key.
	sweep := func(key, title string, line func(id, v string)) {
		fmt.Fprintln(w, title)
		for _, id := range x.cells("ablations") {
			if v := param(id, key); v != "" {
				line(id, v)
			}
		}
	}
	sweep("flowcell_kb", "flowcell size (stride, Gbps/flow):", func(id, kb string) {
		fmt.Fprintf(w, "  %3s KB: %s\n", kb, x.val(id, "tput_gbps", 2))
	})
	sweep("gro_alpha", "GRO hold multiplier alpha (stride, Gbps/flow, false-loss fires):", func(id, a string) {
		fmt.Fprintf(w, "  alpha=%-4s %s Gbps  %s timeouts\n", a, x.val(id, "tput_gbps", 2), x.val(id, "timeout_fires", 0))
	})
	sweep("buffer_kb", "switch buffer depth (stride, Gbps/flow, loss%):", func(id, kb string) {
		fmt.Fprintf(w, "  %4s KB: %s Gbps  %s%% loss\n", kb, x.val(id, "tput_gbps", 2), x.val(id, "loss_pct", 4))
	})
	sweep("cc", "congestion control (stride, Gbps/flow):", func(id, cc string) {
		fmt.Fprintf(w, "  %-6s %s\n", cc, x.val(id, "tput_gbps", 2))
	})
	sweep("labels", "label mode (stride, Gbps/flow, leaf rules):", func(id, mode string) {
		fmt.Fprintf(w, "  %-8s %s Gbps  %s rules\n", mode, x.val(id, "tput_gbps", 2), x.val(id, "leaf_rules", 0))
	})
}

// renderSchemeMatrix lays out the scheme × workload × topology grid:
// one table per workload, schemes as rows, and per-topology mean FCT,
// p99 FCT, and elephant throughput as columns.
func renderSchemeMatrix(w io.Writer, x rx) {
	ids := x.cells("scheme-matrix")
	topos := values(ids, "topo")
	for _, wl := range values(ids, "wl") {
		tb := metrics.Table{Header: []string{"scheme"}}
		for _, tp := range topos {
			tb.Header = append(tb.Header,
				tp+" FCT-mean(ms)", tp+" FCT-p99(ms)", tp+" tput(Gbps)")
		}
		for _, s := range values(ids, "scheme") {
			row := []string{s}
			for _, tp := range topos {
				id := fmt.Sprintf("scheme-matrix/scheme=%s/wl=%s/topo=%s", s, wl, tp)
				row = append(row, x.val(id, "fct_ms_mean", 3),
					x.val(id, "fct_ms_p99", 3), x.val(id, "tput_gbps", 2))
			}
			tb.AddRow(row...)
		}
		fmt.Fprintf(w, "workload %s:\n%s", wl, tb.String())
	}
}
