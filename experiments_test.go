package presto

import (
	"fmt"
	"strings"
	"testing"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

// fastOpt shrinks windows so the whole experiment suite stays quick;
// the cmd/experiments binary uses the full defaults.
func fastOpt(seed uint64) Options {
	return Options{
		Seed:     seed,
		Warmup:   20 * sim.Millisecond,
		Duration: 60 * sim.Millisecond,
	}
}

// runCell runs one cell, failing the test on error.
func runCell(t testing.TB, cell Cell, opt Options) LoadResult {
	t.Helper()
	r, err := cell.Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", cell.ID, err)
	}
	return r
}

// testbed is the paper's Figure 3 fabric, for hand-built clusters.
func testbed() *topo.Topology { return topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{}) }

// startStride starts the elephants preset — one unlimited flow per
// server to the server half the fabric away — on a hand-built cluster.
func startStride(t testing.TB, c *cluster.Cluster) *wspec.Generator {
	t.Helper()
	g, err := wspec.Compile(preset("elephants"), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Start(sim.Second)
	return g
}

// runFigure runs one paper-experiment cell, named by its campaign ID —
// exactly what `experiments -run` executes.
func runFigure(t testing.TB, id string, opt Options) LoadResult {
	t.Helper()
	cell, err := FigureCell(id)
	if err != nil {
		t.Fatal(err)
	}
	return runCell(t, cell, opt)
}

func TestScalabilityPrestoTracksOptimal(t *testing.T) {
	for _, paths := range []int{2, 4} {
		pr := runFigure(t, fmt.Sprintf("fig7/paths=%d/sys=Presto", paths), fastOpt(1))
		op := runFigure(t, fmt.Sprintf("fig7/paths=%d/sys=Optimal", paths), fastOpt(1))
		if pr.MeanTput < 0.9*op.MeanTput {
			t.Errorf("paths=%d: presto %.2f vs optimal %.2f Gbps", paths, pr.MeanTput, op.MeanTput)
		}
		if pr.MeanTput < 8 {
			t.Errorf("paths=%d: presto only %.2f Gbps", paths, pr.MeanTput)
		}
		if pr.Fairness < 0.95 {
			t.Errorf("paths=%d: presto fairness %.3f", paths, pr.Fairness)
		}
	}
}

func TestScalabilityECMPLagsPresto(t *testing.T) {
	// With 8 flows over 8 paths, ECMP hash collisions should cost
	// throughput relative to Presto (Figure 7's gap).
	ec := runFigure(t, "fig7/paths=8/sys=ECMP", fastOpt(2))
	pr := runFigure(t, "fig7/paths=8/sys=Presto", fastOpt(2))
	if ec.MeanTput >= pr.MeanTput {
		t.Errorf("ECMP %.2f >= Presto %.2f Gbps at 8 paths", ec.MeanTput, pr.MeanTput)
	}
}

func TestOversubscriptionAllSchemesProgress(t *testing.T) {
	for _, sys := range []string{"ECMP", "Presto", "Optimal"} {
		r := runFigure(t, "fig10/flows=4/sys="+sys, fastOpt(3))
		// 4 flows over 2 spines: per-flow ~5 Gbps at best.
		if r.MeanTput < 1.5 {
			t.Errorf("%v: %.2f Gbps under 2:1 oversubscription", sys, r.MeanTput)
		}
	}
}

func TestWorkloadStride(t *testing.T) {
	r := runFigure(t, "fig15/wl=stride/sys=Presto", fastOpt(4))
	if r.MeanTput < 8 {
		t.Errorf("presto stride %.2f Gbps", r.MeanTput)
	}
	if r.FCT == nil || r.FCT.N() == 0 {
		t.Fatal("no mice samples")
	}
	if r.RTT.N() == 0 {
		t.Fatal("no RTT samples")
	}
}

func TestWorkloadShuffle(t *testing.T) {
	r := runFigure(t, "fig15/wl=shuffle/sys=Presto", fastOpt(5))
	if r.MeanTput <= 0 {
		t.Fatal("shuffle produced no transfer throughput")
	}
}

func TestGROMicrobenchContrast(t *testing.T) {
	off := runFigure(t, "fig5/gro=official", fastOpt(6))
	pre := runFigure(t, "fig5/gro=presto", fastOpt(6))
	// Figure 5a: Presto GRO masks reordering completely; official GRO
	// leaks it.
	if pre.Dists["ooo_counts"].Max() != 0 {
		t.Errorf("presto GRO exposed reordering: max OOO %v", pre.Dists["ooo_counts"].Max())
	}
	if off.Dists["ooo_counts"].Percentile(90) == 0 {
		t.Error("official GRO shows no reordering — microbenchmark broken")
	}
	// Figure 5b: Presto pushes much larger segments.
	if pre.Dists["seg_kb"].Mean() < 2*off.Dists["seg_kb"].Mean() {
		t.Errorf("segment sizes: presto %.1fKB vs official %.1fKB", pre.Dists["seg_kb"].Mean(), off.Dists["seg_kb"].Mean())
	}
	// §5: official GRO at roughly half the goodput.
	if off.MeanTput >= pre.MeanTput {
		t.Errorf("official GRO %.2f >= presto GRO %.2f Gbps", off.MeanTput, pre.MeanTput)
	}
}

func TestOutOfOrderCounts(t *testing.T) {
	// fc1 spans idx0-3 with one foreign (idx2); fc2 spans idx2-4 with
	// one foreign (idx3); fc3 spans idx5-6 with none.
	got := outOfOrderCounts([]uint32{1, 1, 2, 1, 2, 3, 3})
	if fmt.Sprint(got) != "[1 1 0]" {
		t.Fatalf("counts = %v, want [1 1 0] (flowcells in order of first arrival)", got)
	}
}

func TestCPUOverheadWithinBudget(t *testing.T) {
	pre := runFigure(t, "fig6/gro=presto", fastOpt(7))
	off := runFigure(t, "fig6/gro=official", fastOpt(7))
	if pre.MeanTput < 8 || off.MeanTput < 8 {
		t.Fatalf("stride not at line rate: presto %.2f, official %.2f", pre.MeanTput, off.MeanTput)
	}
	// Figure 6: Presto adds a modest CPU premium over official GRO
	// with no reordering (paper: ~6%).
	preCPU, offCPU := pre.Metrics["cpu_pct"], off.Metrics["cpu_pct"]
	delta := preCPU - offCPU
	if delta < 0 || delta > 20 {
		t.Errorf("CPU overhead delta = %.1f%% (presto %.1f%%, official %.1f%%)", delta, preCPU, offCPU)
	}
}

func TestFlowletSizesSkewed(t *testing.T) {
	r := runFigure(t, "fig1/competing=2", fastOpt(8))
	if r.Metrics["flowlets"] < 2 {
		t.Skipf("only %v flowlets formed", r.Metrics["flowlets"])
	}
	// Figure 1's point: flowlet sizes are highly non-uniform — the
	// largest flowlet dominates the transfer.
	if f := r.Metrics["largest_fraction"]; f < 0.2 {
		t.Errorf("largest flowlet only %.2f of transfer; expected heavy skew", f)
	}
}

func TestTraceRuns(t *testing.T) {
	r := runFigure(t, "table1/sys=Presto", fastOpt(9))
	flows := 0
	for _, cr := range r.Clients {
		flows += cr.Started
	}
	if flows < 50 {
		t.Fatalf("only %d trace flows", flows)
	}
	if r.FCT.N() < 20 {
		t.Fatalf("only %d mice FCT samples", r.FCT.N())
	}
}

func TestNorthSouthRuns(t *testing.T) {
	r := runFigure(t, "table2/sys=Presto", fastOpt(10))
	if r.FCT.N() == 0 {
		t.Fatal("no east-west mice under north-south cross traffic")
	}
	if r.MeanTput < 4 {
		t.Errorf("east-west stride %.2f Gbps under cross traffic", r.MeanTput)
	}
}

func TestFailoverStages(t *testing.T) {
	r := runFigure(t, "fig17/wl=L1->L4", fastOpt(11)).Metrics
	if r["symmetry_gbps"] < 7 {
		t.Errorf("symmetry stage %.2f Gbps", r["symmetry_gbps"])
	}
	// Failover and weighted stages must keep traffic flowing despite
	// the dead link (Figure 17: "reasonable average throughput at each
	// stage").
	if r["failover_gbps"] < 2 {
		t.Errorf("failover stage %.2f Gbps", r["failover_gbps"])
	}
	if r["weighted_gbps"] < 4 {
		t.Errorf("weighted stage %.2f Gbps", r["weighted_gbps"])
	}
	if r["symmetry_rtt_ms_n"] == 0 || r["weighted_rtt_ms_n"] == 0 {
		t.Error("missing stage RTT samples")
	}
}

func TestGRODisabledWall(t *testing.T) {
	r := runCell(t, GRODisabledCell(), fastOpt(12))
	gbps, cpu := r.MeanTput, r.Metrics["cpu_util_pct"]/100
	if gbps < 4.5 || gbps > 7.5 {
		t.Errorf("GRO-disabled wall at %.2f Gbps, want 5.5-7", gbps)
	}
	if cpu < 0.9 {
		t.Errorf("GRO-disabled CPU %.2f, want saturated", cpu)
	}
}

// TestLineupSpellings pins each scheme name a front door accepts to
// the sys= segment of its cell IDs (the golden-gate contract) and the
// canonical registry spec it runs; only "optimal" rebuilds the fabric
// as one switch.
func TestLineupSpellings(t *testing.T) {
	ws := preset("elephants")
	for _, tc := range []struct{ name, id, spec string }{
		{"ecmp", "ECMP", "ecmp"},
		{"mptcp", "MPTCP", "mptcp"},
		{"presto", "Presto", "presto"},
		{"Presto", "Presto", "presto"},
		{"optimal", "Optimal", "ecmp"},
		{"OPTIMAL", "Optimal", "ecmp"},
		{"flowlet100", "Flowlet-100us", "flowlet:gap=100us"},
		{"flowlet500", "Flowlet-500us", "flowlet:gap=500us"},
		{"presto-ecmp", "Presto+ECMP", "presto-ecmp"},
		{"per-packet", "PerPacket", "per-packet"},
		{"flowlet:gap=100us", "flowlet:gap=100us", "flowlet:gap=100us"},
		{"presto:cell=32KB", "presto:cell=32KB", "presto:cell=32KB"},
		{"diffflow:cell=32KB, threshold=512KB", "diffflow:cell=32KB,threshold=512KB", "diffflow:cell=32KB,threshold=512KB"},
	} {
		cell, err := SpecCell(tc.name, ws)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := "workload-spec/wl=elephants/sys=" + tc.id; cell.ID != want || cell.Scheme != tc.spec {
			t.Errorf("%s: ID %q, scheme %q; want %q, %q", tc.name, cell.ID, cell.Scheme, want, tc.spec)
		}
		if cell.optimal != strings.EqualFold(tc.name, "optimal") {
			t.Errorf("%s: optimal = %v", tc.name, cell.optimal)
		}
	}
}
