package main

import (
	"strings"
	"testing"

	"presto/internal/campaign"
)

// TestRenderTakesRowsFromReport feeds the renderers a partial report —
// two of Figure 7's path counts under two of its systems, one workload
// of Figure 16 — and expects exactly those rows and columns: the
// layouts are driven by the report's cells in campaign order, not by a
// second copy of the sweeps that would pad the rest with zeros.
func TestRenderTakesRowsFromReport(t *testing.T) {
	cell := func(exp, id string, metric string, v float64) campaign.CellResult {
		return campaign.CellResult{Experiment: exp, ID: id, Envelopes: map[string]campaign.Envelope{metric: {Mean: v, N: 1}}}
	}
	report := &campaign.Report{Seeds: []uint64{1}, Cells: []campaign.CellResult{
		cell("fig7", "fig7/paths=4/sys=Presto", "tput_gbps", 9.1),
		cell("fig7", "fig7/paths=4/sys=ECMP", "tput_gbps", 5.2),
		cell("fig7", "fig7/paths=2/sys=Presto", "tput_gbps", 9.3),
		cell("fig7", "fig7/paths=2/sys=ECMP", "tput_gbps", 6.4),
		cell("fig16", "fig16/wl=bijection/sys=MPTCP", "mice_timeouts", 3),
		cell("fig12", "fig12/flows=8/sys=Presto", "loss_pct", 0.5),
	}}
	var out strings.Builder
	renderReport(&out, report)
	want := `==== fig7: Scalability: throughput vs path count ====
avg flow throughput (Gbps):
paths  Presto  ECMP
4      9.10    5.20
2      9.30    6.40

==== fig16: Mice FCT across workloads ====
mice FCT (ms), bijection workload:
  MPTCP    n=0 timeouts=3

==== fig12: Oversubscription: loss rate and fairness ====
oversub  scheme  loss%   fairness
4.0      Presto  0.5000  0.000

`
	if out.String() != want {
		t.Errorf("partial report rendered as:\n%s\nwant:\n%s", out.String(), want)
	}
}
