package presto

import (
	"cmp"
	"fmt"
	"strings"

	"presto/internal/campaign"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

// This file is the experiment table: every figure and table of the
// paper's evaluation, the ablations, the pod-scale run and the scheme
// matrix as rows of Cells, and Campaign, the one builder that turns a
// front-end request (cmd/experiments flags, a prestod job) into a
// campaign over them.

// scaleSystems are the four systems the scalability, oversubscription,
// and workload sweeps compare (the paper's §4 lineup).
var scaleSystems = []string{"ecmp", "mptcp", "presto", "optimal"}

// noOptimal is the lineup of figures that have no Optimal column.
var noOptimal = []string{"ecmp", "mptcp", "presto"}

// experiments maps experiment ID → rows, in render order.
var experiments = []struct {
	id    string
	title string
	cells func() []Cell
}{
	{"fig1", "Flowlet sizes vs competing flows (500us gap)", fig1Cells},
	{"fig5", "GRO reordering microbenchmark (OOO counts, segment sizes)", fig5Cells},
	{"fig6", "Receiver CPU overhead at line rate", fig6Cells},
	{"fig7", "Scalability: throughput vs path count", func() []Cell {
		return fabricSweep("fig7", "paths", []int{2, 3, 4, 5, 6, 7, 8}, scaleSystems, scalabilityFabric)
	}},
	{"fig8", "Scalability: RTT distribution", func() []Cell {
		return fabricSweep("fig8", "", []int{8}, scaleSystems, scalabilityFabric)
	}},
	{"fig9", "Scalability: loss rate and fairness", func() []Cell {
		return fabricSweep("fig9", "paths", []int{2, 4, 8}, scaleSystems, scalabilityFabric)
	}},
	{"fig10", "Oversubscription: throughput", func() []Cell {
		return fabricSweep("fig10", "flows", []int{2, 4, 6, 8}, scaleSystems, oversubFabric)
	}},
	{"fig11", "Oversubscription: RTT distribution", func() []Cell {
		return fabricSweep("fig11", "", []int{8}, noOptimal, oversubFabric)
	}},
	{"fig12", "Oversubscription: loss rate and fairness", func() []Cell {
		return fabricSweep("fig12", "flows", []int{2, 4, 8}, noOptimal, oversubFabric)
	}},
	{"fig13", "Flowlet switching vs Presto (stride)", func() []Cell {
		return presetSweep("fig13", []string{"stride"}, []string{"flowlet100", "flowlet500", "presto"}, "sizesplit")
	}},
	{"fig14", "Presto shadow-MAC vs Presto+ECMP (stride)", func() []Cell {
		return presetSweep("fig14", []string{"stride"}, []string{"presto-ecmp", "presto"}, "sizesplit")
	}},
	{"fig15", "Elephant throughput across workloads", func() []Cell {
		return presetSweep("fig15", []string{"shuffle", "random", "stride", "bijection"}, scaleSystems, "sizesplit")
	}},
	{"fig16", "Mice FCT across workloads", func() []Cell {
		return presetSweep("fig16", []string{"stride", "bijection", "shuffle"}, scaleSystems, "sizesplit")
	}},
	{"table1", "Trace-driven mice FCT (normalized to ECMP)", func() []Cell {
		// The trace-driven cells keep running 100 ms past the window so
		// straggling elephants finish and are counted.
		return presetSweep("table1", []string{"trace-mix"}, []string{"ecmp", "optimal", "presto"}, "sizesplit:drain=100ms")
	}},
	{"table2", "North-south cross traffic: east-west mice FCT", func() []Cell {
		return presetSweep("table2", []string{"north-south"}, scaleSystems, "sizesplit")
	}},
	{"fig17", "Failure handling: throughput per stage", func() []Cell {
		return failoverCells("fig17", []string{"L1->L4", "L4->L1", "stride", "bijection"})
	}},
	{"fig18", "Failure handling: RTT per stage (bijection)", func() []Cell { return failoverCells("fig18", []string{"bijection"}) }},
	{"ablations", "Design-choice ablations (flowcell size, GRO alpha, buffers, DCTCP, tunnels)", ablationCells},
	{"podtraffic", "Pod-scale cross-pod elephants on a 3-tier Clos (honors -shards)", func() []Cell {
		cells, _ := podCells(nil, "clos3") // the row's own fabric always parses
		return cells
	}},
	{"scheme-matrix", "Scheme registry × workload × topology comparison matrix", func() []Cell { return matrixCells(nil) }},
}

// CampaignExperimentIDs lists the experiment IDs in render order.
func CampaignExperimentIDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// CampaignExperimentTitle returns the human title for an experiment
// ID ("" when unknown).
func CampaignExperimentTitle(id string) string {
	for _, e := range experiments {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// FigureCell looks a paper-experiment cell up by its campaign ID
// ("fig5/gro=presto", "fig17/wl=stride", ...).
func FigureCell(id string) (Cell, error) {
	exp, _, _ := strings.Cut(id, "/")
	for _, e := range experiments {
		if e.id != exp {
			continue
		}
		for _, cell := range e.cells() {
			if cell.ID == id {
				return cell, nil
			}
		}
	}
	return Cell{}, fmt.Errorf("unknown experiment cell %q", id)
}

// Campaign turns a request into the campaign it describes — the one
// builder behind `experiments` flags, prestod jobs and
// examples/serving, so the same request yields the same spec hash (and
// byte-identical artifacts) through every door. A workload sweeps
// across the request's schemes (default: the §4 lineup); schemes alone
// restrict the scheme matrix; otherwise Experiments selects paper
// experiments ("all" or a comma-separated list of IDs), and the
// podtraffic row alone takes the request's schemes and topology.
// perRun, when non-nil, is wired through every run (see
// campaign.Diagnostics.PerRun). Zero request fields take their
// defaults (campaign.Request); Progress and Telemetry are the caller's
// to set on the returned spec. A workload that cannot run on the
// requested shards is an error here, not a failed replica later.
func Campaign(req campaign.Request, perRun *telemetry.Registry) (*campaign.Spec, error) {
	opt := RunOptions(req)
	// The windows are folded into the spec hash, spelled exactly, so
	// golden envelopes detect runs taken with different ones.
	spec := &campaign.Spec{
		Name:        "cells",
		Params:      map[string]string{"duration": opt.Duration.AsDuration().String(), "warmup": opt.Warmup.AsDuration().String()},
		Seeds:       campaign.Seeds(opt.Seed, req.Seeds),
		Parallelism: req.Parallelism,
		CellTimeout: sim.Time(req.CellTimeout).AsDuration(),
	}
	cells, err := selectCells(req, spec)
	if err != nil {
		return nil, err
	}
	traced := opt
	traced.Telemetry = perRun
	for _, cell := range cells {
		if m, _, err := lookupMeasure(cell.Measure); err == nil && m.shards && opt.Shards > 1 {
			if _, _, err := cell.Start(opt); err != nil { // dry run: build and compile only
				return nil, err
			}
		}
		spec.Cells = append(spec.Cells, cell.Campaign(traced))
	}
	return spec, nil
}

// RunOptions are the per-run Options a request asks for, at its base
// seed (campaign replicas substitute their own).
func RunOptions(req campaign.Request) Options {
	req = req.WithDefaults()
	return Options{
		Seed:     req.Seed,
		Warmup:   sim.Time(req.Warmup),
		Duration: sim.Time(req.Duration),
		Shards:   req.Shards,
	}
}

// selectCells resolves the request's selection to rows of the
// experiment table, naming spec after it and adding the selection's
// identity params.
func selectCells(req campaign.Request, spec *campaign.Spec) (cells []Cell, err error) {
	systems, err := lookupSchemes(req.Scheme)
	if err != nil {
		return nil, err
	}
	sel := strings.ToLower(req.Experiments)
	if req.Topology != "" && (sel != "podtraffic" || len(req.Workload) > 0) {
		return nil, fmt.Errorf("topology %s: only the podtraffic experiment takes a topology, not experiments %q or a workload", req.Topology, req.Experiments)
	}
	switch {
	case len(req.Workload) > 0:
		if sel != "" {
			return nil, fmt.Errorf("an experiment selection and a workload are mutually exclusive")
		}
		ws, err := wspec.ResolveJSON(req.Workload)
		if err != nil {
			return nil, fmt.Errorf("workload: %w (presets: %s)", err, strings.Join(wspec.PresetNames(), " | "))
		}
		if systems == nil {
			for _, name := range scaleSystems {
				systems = append(systems, paper(name))
			}
		}
		for _, sys := range systems {
			cells = append(cells, specCell(sys, ws))
		}
		// The spec hash is recorded both per cell and as a campaign
		// param, so the campaign hash — and any golden gate — pins the
		// exact workload.
		spec.Name, spec.Params["workload"] = "workload-spec/"+ws.Name, ws.Hash()
		return cells, nil
	case sel == "podtraffic":
		spec.Name = "experiments/podtraffic"
		return podCells(systems, cmp.Or(req.Topology, "clos3"))
	case systems != nil:
		if sel != "scheme-matrix" {
			return nil, fmt.Errorf("schemes need a workload or the scheme-matrix or podtraffic experiment (registered schemes: %s)", strings.Join(scheme.Names(), ", "))
		}
		var specs []string
		for _, sys := range systems {
			if sys.optimal {
				return nil, fmt.Errorf("scheme-matrix varies the topology itself; %s is a topology baseline, not a scheme", sys.display)
			}
			specs = append(specs, sys.spec)
		}
		spec.Name, spec.Params["schemes"] = fmt.Sprintf("scheme-matrix/%d-schemes", len(systems)), fmt.Sprint(len(systems))
		return matrixCells(specs), nil
	case sel == "":
		return nil, fmt.Errorf(`select experiments (e.g. "fig7" or "all") or give a workload (spec, preset name, or spec path)`)
	}
	ids := CampaignExperimentIDs()
	if sel != "all" {
		ids = nil
		for _, id := range strings.Split(sel, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			if CampaignExperimentTitle(id) == "" {
				return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", id, strings.Join(CampaignExperimentIDs(), ", "))
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("empty experiment selection %q", req.Experiments)
		}
	}
	for _, id := range ids {
		for _, e := range experiments {
			if e.id == id {
				cells = append(cells, e.cells()...)
			}
		}
	}
	spec.Name = "experiments/" + strings.Join(ids, ",")
	return cells, nil
}

// lookupSchemes resolves a comma-separated scheme list through
// lookupScheme; "" in, nil out. An element with "=" but no ":" is a
// further key of the spec before it, so "ecmp:gro=presto,alpha=1,presto"
// is two schemes.
func lookupSchemes(list string) ([]lineupRow, error) {
	var specs []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		if n := len(specs); n > 0 && strings.Contains(s, "=") && !strings.Contains(s, ":") {
			specs[n-1] += "," + s
			continue
		}
		specs = append(specs, s)
	}
	var systems []lineupRow
	for _, s := range specs {
		sys, err := lookupScheme(s)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	return systems, nil
}

// SpecCell is a workload spec under the named scheme (a lineup
// spelling or a registry spec) on the testbed, measured like every
// -workload run: throughput, loss, probe RTT, the FCT of every sized
// flow, and per-client outcomes. The cell carries the spec hash, so
// artifacts key on the exact workload.
func SpecCell(name string, ws *wspec.Spec) (Cell, error) {
	sys, err := lookupScheme(name)
	if err != nil {
		return Cell{}, err
	}
	return specCell(sys, ws), nil
}

func specCell(sys lineupRow, ws *wspec.Spec) Cell {
	return Cell{
		Experiment: "workload-spec",
		ID:         fmt.Sprintf("workload-spec/wl=%s/sys=%s", ws.Name, sys.display),
		Scheme:     sys.spec,
		Workload:   ws,
		Measure:    "clients",
		optimal:    sys.optimal,
	}
}

// podCells is the podtraffic row on the topology spec, one cell per
// system (nil: ECMP and Presto), named by the canonical spec: one
// elephant per host to the same-position host one pod over, the
// pattern the sharded engine exists for (any Options.Shards gives
// bit-identical results).
func podCells(systems []lineupRow, topology string) ([]Cell, error) {
	ts, err := topo.ParseSpec(topology)
	if err != nil {
		return nil, err
	}
	tp := ts.Build()
	if tp.NumPods < 2 {
		return nil, fmt.Errorf("topology %s has %d pod; podtraffic sends across pods and needs at least 2", ts, tp.NumPods)
	}
	ws := preset("podtraffic")
	ws.Clients[0].Select.Stride = tp.NumHosts() / tp.NumPods // hosts per pod
	if systems == nil {
		systems = []lineupRow{paper("ecmp"), paper("presto")}
	}
	var cells []Cell
	for _, sys := range systems {
		cells = append(cells, Cell{
			Experiment: "podtraffic",
			ID:         fmt.Sprintf("podtraffic/topo=%s/sys=%s", ts, sys.display),
			Scheme:     sys.spec,
			Topo:       ts.String(),
			Workload:   ws,
			Measure:    "pod",
			optimal:    sys.optimal,
		})
	}
	return cells, nil
}

// topoSpec renders a fabric of the experiment table canonically; the
// table writes only specs that parse.
func topoSpec(format string, args ...any) string {
	ts, err := topo.ParseSpec(fmt.Sprintf(format, args...))
	if err != nil {
		panic("presto: " + err.Error())
	}
	return ts.String()
}

// The Figure 4 fabrics for a point n: 4a's 2 leaves under n spines
// with one host per (leaf, flow), and 4b's 2 spines and 2 leaves with
// n hosts per leaf (oversubscription n/2).
const (
	scalabilityFabric = "clos:hpl=%[1]d,leaves=2,spines=%[1]d"
	oversubFabric     = "clos:hpl=%d,leaves=2,spines=2"
)

// preset loads a built-in workload preset.
func preset(name string) *wspec.Spec {
	ws, err := wspec.Preset(name)
	if err != nil {
		panic("presto: " + err.Error())
	}
	return ws
}

// elephants builds the workload of the figure-specific benchmarks: one
// unlimited flow per explicit (src, dst) pair, plus — for Figure 1 —
// one sized transfer.
func elephants(pairs [][2]int, transfer *wspec.Client) *wspec.Spec {
	ws := &wspec.Spec{
		Version: wspec.Version,
		Name:    "pairs",
		Clients: []wspec.Client{{
			ID:      "elephants",
			Arrival: wspec.Arrival{Process: wspec.ProcOnce},
			Size:    wspec.SizeDist{Kind: wspec.SizeUnlimited},
			Select:  wspec.Select{Kind: wspec.SelPairs, Pairs: pairs},
		}},
	}
	if transfer != nil {
		ws.Clients = append(ws.Clients, *transfer)
	}
	return ws
}

// fig1Cells: a 32 MB transfer to a receiver shared with `competing`
// background elephants on a single switch, chopped into flowlets by a
// 500 µs inactivity gap.
func fig1Cells() []Cell {
	var cells []Cell
	for _, competing := range []int{1, 2, 3, 4, 6, 8} {
		hosts := 2 + competing
		var background [][2]int
		for h := 2; h < hosts; h++ {
			background = append(background, [2]int{h, 1})
		}
		cells = append(cells, Cell{
			Experiment: "fig1",
			ID:         fmt.Sprintf("fig1/competing=%d", competing),
			Scheme:     "flowlet:gap=500us",
			Topo:       topoSpec("single:hosts=%d", hosts),
			Workload: elephants(background, &wspec.Client{
				ID:      "transfer",
				Arrival: wspec.Arrival{Process: wspec.ProcOnce},
				Size:    wspec.SizeDist{Kind: wspec.SizeFixed, Bytes: 32 << 20},
				Select:  wspec.Select{Kind: wspec.SelPairs, Pairs: [][2]int{{0, 1}}},
			}),
			Measure: "flowlets",
		})
	}
	return cells
}

// groCell runs elephants over pairs on the topology spec under the
// scheme spec, measured like Figure 5.
func groCell(id, spec, topology string, pairs [][2]int) Cell {
	return Cell{
		Experiment: "fig5",
		ID:         id,
		Scheme:     spec,
		Topo:       topology,
		Workload:   elephants(pairs, nil),
		Measure:    "gro",
	}
}

// fig5Cells: two flows sprayed over two paths (Figure 4b topology),
// received through official GRO or Presto's own.
func fig5Cells() []Cell {
	tp := topoSpec(oversubFabric, 2)
	return []Cell{
		groCell("fig5/gro=official", "presto:gro=official", tp, leafToLeaf(2)),
		groCell("fig5/gro=presto", "presto", tp, leafToLeaf(2)),
	}
}

// GRODisabledCell measures the no-receive-offload wall (§2.2's ~5.5-7
// Gbps at 100% CPU): one elephant with GRO disabled at the receiver.
// It is not part of any campaign.
func GRODisabledCell() Cell {
	return groCell("gro=none", "ecmp:gro=none", "single:hosts=2", [][2]int{{0, 1}})
}

// fig6Cells: stride at line rate; Presto (spraying + Presto GRO on the
// Clos) versus official GRO with no reordering (same stride on the
// non-blocking switch).
func fig6Cells() []Cell {
	opt := paper("optimal")
	return []Cell{
		{Experiment: "fig6", ID: "fig6/gro=official", Scheme: opt.spec, Workload: preset("elephants"), Measure: "cpu", optimal: opt.optimal},
		{Experiment: "fig6", ID: "fig6/gro=presto", Scheme: "presto", Workload: preset("elephants"), Measure: "cpu"},
	}
}

// leafToLeaf pairs host i on the first leaf with host i on the second
// of a two-leaf fabric with n hosts per leaf.
func leafToLeaf(n int) [][2]int {
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{i, n + i}
	}
	return pairs
}

// fabricSweep builds the Figure 4 benchmark cells: for each point n, n
// leaf-to-leaf elephants on the spec fabric formats for n, under every
// system, measured by load (RTT probes and switch loss counters). An
// empty label leaves the point out of the cell IDs (the single-point
// RTT figures).
func fabricSweep(exp, label string, points []int, systems []string, fabric string) []Cell {
	var cells []Cell
	for _, n := range points {
		prefix := exp
		if label != "" {
			prefix = fmt.Sprintf("%s/%s=%d", exp, label, n)
		}
		ws, tp := elephants(leafToLeaf(n), nil), topoSpec(fabric, n)
		for _, name := range systems {
			sys := paper(name)
			cells = append(cells, Cell{
				Experiment: exp,
				ID:         fmt.Sprintf("%s/sys=%s", prefix, sys.display),
				Scheme:     sys.spec,
				Topo:       tp,
				Workload:   ws,
				Measure:    "load",
				optimal:    sys.optimal,
			})
		}
	}
	return cells
}

// presetSweep runs named workload presets on the testbed under every
// system with the paper's size-split measurement, spelled in full by
// measure. A single workload stays out of the cell IDs.
func presetSweep(exp string, workloads, systems []string, measure string) []Cell {
	var cells []Cell
	for _, wl := range workloads {
		prefix := exp
		if len(workloads) > 1 {
			prefix = exp + "/wl=" + wl
		}
		ws := preset(wl)
		for _, name := range systems {
			sys := paper(name)
			cells = append(cells, Cell{
				Experiment: exp,
				ID:         fmt.Sprintf("%s/sys=%s", prefix, sys.display),
				Scheme:     sys.spec,
				Workload:   ws,
				Measure:    measure,
				optimal:    sys.optimal,
			})
		}
	}
	return cells
}

// failoverCells: Presto elephants on the testbed, measured through
// the three stages around the S1-L1 link failure.
func failoverCells(exp string, workloads []string) []Cell {
	var cells []Cell
	for _, wl := range workloads {
		var ws *wspec.Spec
		switch wl {
		case "L1->L4": // every L1 host to one L4 host
			ws = elephants([][2]int{{0, 12}, {1, 13}, {2, 14}, {3, 15}}, nil)
		case "L4->L1":
			ws = elephants([][2]int{{12, 0}, {13, 1}, {14, 2}, {15, 3}}, nil)
		case "stride":
			ws = preset("elephants")
		case "bijection":
			ws = preset("elephants")
			ws.Clients[0].Select.Kind = wspec.SelBijection
		}
		cells = append(cells, Cell{
			Experiment: exp,
			ID:         exp + "/wl=" + wl,
			Scheme:     "presto",
			Workload:   ws,
			Measure:    "failover",
		})
	}
	return cells
}

// ablationCells sweeps the design choices §2.1/§3.2 argue for on the
// stride workload under Presto.
func ablationCells() []Cell {
	var cells []Cell
	// add completes a Presto (unless c names a scheme) stride cell,
	// measured with no extra metric unless c names one.
	add := func(c Cell) {
		c.Experiment, c.ID, c.Scheme = "ablations", "ablations/"+c.ID, cmp.Or(c.Scheme, "presto")
		c.Workload, c.Measure = preset("elephants"), cmp.Or(c.Measure, "ablation")
		cells = append(cells, c)
	}
	for _, kb := range []int{16, 32, 64, 128, 256} {
		add(Cell{ID: fmt.Sprintf("flowcell_kb=%d", kb), Scheme: fmt.Sprintf("presto:cell=%dKB", kb)})
	}
	for _, a := range []float64{0.5, 1, 2, 4} {
		add(Cell{ID: fmt.Sprintf("gro_alpha=%g", a), Scheme: fmt.Sprintf("presto:alpha=%g", a), Measure: "ablation:extra=timeout_fires"})
	}
	for _, kb := range []int{256, 512, 2048, 8192} {
		add(Cell{ID: fmt.Sprintf("buffer_kb=%d", kb), Topo: topoSpec("clos:queue=%dKB", kb), Measure: "ablation:extra=loss_pct"})
	}
	for _, cc := range []struct{ name, topo string }{{"cubic", ""}, {"reno", ""}, {"dctcp", "clos:ecn=200KB"}} {
		add(Cell{ID: "cc=" + cc.name, Scheme: "presto:cc=" + cc.name, Topo: cc.topo})
	}
	for _, labels := range []string{"per-host", "tunnel"} {
		add(Cell{ID: "labels=" + labels, Scheme: "presto:labels=" + labels, Measure: "ablation:extra=leaf_rules"})
	}
	return cells
}

// The scheme matrix is the standing scheme × workload × topology
// comparison: every registered load-balancing scheme runs the same
// declarative workloads on both a 2-tier Clos and a low-diameter leaf
// mesh, and the campaign renders mean FCT, p99 FCT, and throughput per
// cell. The golden gate in CI turns the matrix into a regression fence
// for every scheme at once.

// matrixWorkloads are the workload presets in the matrix grid, in
// render order.
var matrixWorkloads = []string{"elephants", "mice-heavy", "incast32"}

// matrixTopos are the topology columns, as specs that also name them
// in cell IDs: the paper's Figure 3 Clos and a 4-leaf mesh with the
// same server count.
var matrixTopos = []string{"clos", "mesh"}

// matrixCells builds the grid for the given canonical scheme specs;
// nil means every registered scheme with default parameters, in sorted
// registry order. A cell is named by the spec it runs, so a
// re-parameterised scheme ("presto:cell=16KB") gets its own IDs — they
// are part of the golden-gate contract, so the format is frozen.
func matrixCells(specs []string) []Cell {
	if specs == nil {
		specs = scheme.Names()
	}
	var cells []Cell
	for _, spec := range specs {
		for _, wl := range matrixWorkloads {
			ws := preset(wl)
			for _, tp := range matrixTopos {
				cells = append(cells, Cell{
					Experiment: "scheme-matrix",
					ID:         fmt.Sprintf("scheme-matrix/scheme=%s/wl=%s/topo=%s", spec, wl, tp),
					Scheme:     spec,
					Topo:       tp,
					Workload:   ws,
					Measure:    "meanfct",
				})
			}
		}
	}
	return cells
}
