package presto

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"presto/internal/campaign"
	"presto/internal/cluster"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/param"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
	wspec "presto/internal/workload/spec"
)

// Cell is one row of the experiment table: a scheme on a topology
// under a workload spec, observed by a measurement. Every paper
// figure, scheme-matrix cell, -workload sweep, pod-scale run and
// prestod job is a list of Cells, and Run is the one path that
// executes them.
type Cell struct {
	// Experiment and ID name the cell in campaigns ("fig7",
	// "fig7/paths=4/sys=Presto"); IDs are the golden-gate contract.
	Experiment, ID string
	// Scheme is the canonical registry spec the cell runs
	// ("flowlet:gap=100us").
	Scheme string
	// Topo is the fabric, a canonical topology spec (topo.ParseSpec;
	// empty is "clos", the paper's testbed). A workload with
	// north-south clients gets one 100 Mbps remote user per spine.
	Topo string
	// Workload is the traffic, always a declarative spec.
	Workload *wspec.Spec
	// Measure is how the run is driven and harvested, a canonical spec
	// of the measures table ("sizesplit:drain=100ms").
	Measure string
	// optimal runs the cell on topo.SingleSwitchOf its fabric: the
	// paper's Optimal baseline, set only by the lineup's optimal row.
	optimal bool
}

// measure is an entry of the measures table: its parameter schema,
// whether it starts sockperf-style RTT probers over the server stride
// pairs (i, i+N/2) — at any shard count — and whether it honors
// Options.Shards, beside the function that drives the started run and
// harvests it.
type measure struct {
	params         []param.Param
	probes, shards bool
	observe        func(*run) LoadResult
}

// measures are the measurements a cell's Measure names, in the scheme
// grammar (package param). Only the -workload measure (clients) and
// the pod-scale one (pod) honor Options.Shards; paper-figure cells run
// serially by policy.
var measures = map[string]measure{
	"load":    {probes: true, observe: loadWindow},
	"clients": {probes: true, shards: true, observe: clientDetail},
	"meanfct": {probes: true, observe: withMeanFCT},
	"sizesplit": {params: []param.Param{{Name: "drain", Kind: param.KindDuration, Default: "0s"}},
		probes: true, observe: sizeSplit},
	"gro":      {observe: groMicrobench},
	"cpu":      {observe: cpuOverhead},
	"flowlets": {observe: flowletSizes},
	"failover": {probes: true, observe: failover},
	"pod":      {shards: true, observe: podLoad},
	"ablation": {params: []param.Param{{Name: "extra", Kind: param.KindEnum, Default: "none",
		Values: []string{"none", "timeout_fires", "loss_pct", "leaf_rules"}}}, observe: ablation},
}

// schema is the measure's parameter schema.
func (m measure) schema() []param.Param { return m.params }

// lookupMeasure resolves a measure spec against the measures table.
func lookupMeasure(spec string) (measure, param.Resolved, error) {
	name, _, vals, err := param.Lookup("measure", spec, measures, measure.schema)
	return measures[name], vals, err
}

// LoadResult is the output of one cell run.
type LoadResult struct {
	Seed uint64 // the RNG seed the run used (replay: pass it back via Options.Seed)
	// Shards is the number of engine shards the run actually used;
	// Hosts the topology's host count.
	Shards, Hosts int

	MeanTput     float64       // average per-flow elephant goodput, Gbps
	Fairness     float64       // Jain's index over elephant goodputs
	LossRate     float64       // switch-counter loss fraction
	RTT          *metrics.Dist // probe round-trip times, ms
	FCT          *metrics.Dist // flow completion times, ms (nil when no sized flow finished)
	MiceTimeouts int           // finished flows whose sender hit an RTO
	// Clients are the per-client outcomes of the workload spec.
	Clients []wspec.ClientResult
	// Delivered counts packets handed to host NICs; Events counts
	// engine events executed across all shards. Both are bit-identical
	// across shard counts.
	Delivered, Events uint64

	// Metrics and Dists are the cell's campaign form: what the report
	// envelopes and golden gates see.
	Metrics campaign.Values
	Dists   map[string]*metrics.Dist
}

// run is a started cell: the cluster, its traffic, its probers and
// its measure's values, handed to the measure's observe.
type run struct {
	opt     Options
	c       *cluster.Cluster
	g       *wspec.Generator
	probers []*cluster.Prober
	params  param.Resolved
}

// probeInterval is the RTT probe spacing.
const probeInterval = sim.Millisecond

// topology completes the fabric tp the cell's spec builds: remote
// users for north-south clients, and Optimal's single switch.
func (cell Cell) topology(tp *topo.Topology) *topo.Topology {
	if cell.Workload.NeedsRemotes() {
		for _, s := range tp.Spines {
			tp.AddSpineHost(s, 100e6, 5*sim.Microsecond)
		}
	}
	if cell.optimal {
		tp = topo.SingleSwitchOf(tp)
	}
	return tp
}

// Start builds the cell's cluster under opt and compiles the workload
// onto it, leaving both unstarted — the one place a (scheme, topology,
// workload) triple becomes a cluster. Run drives what it returns;
// Campaign calls it on its own as a dry run, so a workload that cannot
// run on the requested shards is rejected with Compile's field-path
// error when the campaign is built.
func (cell Cell) Start(opt Options) (*cluster.Cluster, *wspec.Generator, error) {
	m, _, err := lookupMeasure(cell.Measure)
	if err != nil {
		return nil, nil, err
	}
	if _, err := scheme.ParseSpec(cell.Scheme); err != nil {
		return nil, nil, err
	}
	ts, err := topo.ParseSpec(cmp.Or(cell.Topo, "clos"))
	if err != nil {
		return nil, nil, err
	}
	cfg := cluster.Config{
		Topology:  cell.topology(ts.Build()),
		Seed:      opt.Seed,
		Telemetry: opt.Telemetry,
		Scheme:    cluster.Scheme(cell.Scheme),
	}
	cfg.Fabric.SwitchQueueBytes, cfg.Fabric.ECNThresholdBytes = ts.Switch()
	if m.shards {
		cfg.Shards = opt.Shards // New caps it at the pod count
	}
	c := cluster.New(cfg)
	g, err := wspec.Compile(cell.Workload, c, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	return c, g, nil
}

// Run executes the cell: build the cluster, compile the workload onto
// it, start probers and then traffic, and let the measure drive and
// harvest the run. Everything that runs a simulation in this
// repository outside the benchmark harness goes through here.
// A traced run ends its telemetry scope on return (Registry.EndRun),
// so the registry keeps the run's final probe values, not its cluster.
func (cell Cell) Run(opt Options) (LoadResult, error) {
	opt.fill()
	m, params, err := lookupMeasure(cell.Measure)
	if err != nil {
		return LoadResult{}, err
	}
	c, g, err := cell.Start(opt)
	if err != nil {
		return LoadResult{}, err
	}
	r := &run{opt: opt, c: c, g: g, params: params}
	if m.probes {
		n := g.Servers()
		for i := 0; i < n; i++ {
			p := c.NewProber(packet.HostID(i), packet.HostID((i+n/2)%n), probeInterval)
			p.Start()
			r.probers = append(r.probers, p)
		}
	}
	g.Start(opt.Warmup + opt.Duration)
	res := m.observe(r)
	opt.Telemetry.EndRun()
	return res, nil
}

// Campaign wraps the cell as a campaign cell running under opt (the
// replica's seed replaces opt.Seed), keyed on its workload's hash.
func (cell Cell) Campaign(opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: cell.Experiment,
		ID:         cell.ID,
		Workload:   cell.Workload.Hash(),
		Run: func(seed uint64) (campaign.Result, error) {
			o := opt
			o.Seed = seed
			r, err := cell.Run(o)
			return campaign.Result{Metrics: r.Metrics, Dists: r.Dists}, err
		},
	}
}

// window warms up, restarts measurement, and runs to until.
func (r *run) window(warmup, until sim.Time) {
	r.c.Run(warmup)
	r.g.ResetBaseline(r.c.Now())
	r.c.Run(until)
}

// until is the end of the cell's measurement window.
func (r *run) until() sim.Time { return r.opt.Warmup + r.opt.Duration }

// harvest collects what every run reports: elephant throughput and
// fairness from the generator, switch loss, probe RTTs, and the FCTs
// of every sized flow.
func (r *run) harvest() LoadResult {
	c, now := r.c, r.c.Now()
	res := LoadResult{
		Seed:      r.opt.Seed,
		Shards:    c.Shards(),
		Hosts:     c.Topo.NumHosts(),
		MeanTput:  r.g.MeanTput(now),
		Fairness:  1,
		LossRate:  c.Net.LossRate(),
		RTT:       &metrics.Dist{},
		Clients:   r.g.Results(now),
		Delivered: c.Net.TotalDelivered(),
		Events:    c.Executed(),
	}
	if f := r.g.Fairness(now); f > 0 {
		res.Fairness = f
	}
	for _, p := range r.probers {
		// Sorted per prober, as Dist.Merge appends: insertion order is
		// Mean's summation order.
		rtts := slices.Clone(p.RTTs)
		slices.Sort(rtts)
		for _, v := range rtts {
			res.RTT.Add(v)
		}
	}
	fct := &metrics.Dist{}
	timeouts := 0
	for _, cr := range res.Clients {
		fct.Merge(cr.FCT)
		timeouts += cr.Timeouts
	}
	if fct.N() > 0 {
		res.FCT = fct
		res.MiceTimeouts = timeouts
	}
	return res
}

// addDistStats folds a distribution's headline statistics into v under
// prefix (prefix_p50 ... prefix_max, prefix_n).
func addDistStats(v campaign.Values, prefix string, d *metrics.Dist) {
	if d == nil || d.N() == 0 {
		return
	}
	v[prefix+"_p50"] = d.Percentile(50)
	v[prefix+"_p90"] = d.Percentile(90)
	v[prefix+"_p99"] = d.Percentile(99)
	v[prefix+"_p999"] = d.Percentile(99.9)
	v[prefix+"_max"] = d.Max()
	v[prefix+"_n"] = float64(d.N())
}

// loadMetrics fills res.Metrics and res.Dists with the throughput /
// latency form most cells report.
func loadMetrics(res *LoadResult) {
	res.Metrics = campaign.Values{
		"tput_gbps": res.MeanTput,
		"loss_pct":  res.LossRate * 100,
		"fairness":  res.Fairness,
	}
	res.Dists = map[string]*metrics.Dist{}
	addDistStats(res.Metrics, "rtt_ms", res.RTT)
	if res.RTT.N() > 0 {
		res.Dists["rtt_ms"] = res.RTT
	}
	if res.FCT != nil && res.FCT.N() > 0 {
		addDistStats(res.Metrics, "fct_ms", res.FCT)
		res.Metrics["mice_timeouts"] = float64(res.MiceTimeouts)
		res.Dists["fct_ms"] = res.FCT
	}
}

// loadWindow is the plain measurement: warmup, baseline reset,
// measurement window, then throughput, loss, RTT and the FCT of every
// sized flow.
func loadWindow(r *run) LoadResult {
	r.window(r.opt.Warmup, r.until())
	res := r.harvest()
	loadMetrics(&res)
	return res
}

// clientDetail is loadWindow plus per-client outcomes, so multi-client
// specs stay diagnosable (e.g. mice vs elephants of mice-heavy).
func clientDetail(r *run) LoadResult {
	res := loadWindow(r)
	for _, cr := range res.Clients {
		p := "client_" + cr.ID
		res.Metrics[p+"_started"] = float64(cr.Started)
		res.Metrics[p+"_finished"] = float64(cr.Finished)
		if cr.FCT.N() > 0 {
			res.Metrics[p+"_fct_ms_p99"] = cr.FCT.Percentile(99)
			res.Dists["fct_ms_"+cr.ID] = cr.FCT
		}
		if cr.Tput > 0 {
			res.Metrics[p+"_tput_gbps"] = cr.Tput
		}
	}
	return res
}

// withMeanFCT is loadWindow plus the mean FCT the scheme matrix
// renders.
func withMeanFCT(r *run) LoadResult {
	res := loadWindow(r)
	if res.FCT != nil {
		res.Metrics["fct_ms_mean"] = res.FCT.Mean()
	}
	return res
}

// The paper's flow classes (Table 1): mice are flows under 100 KB,
// elephants flows over 1 MB.
const (
	miceBytes     = 100_000
	elephantBytes = 1_000_000
)

// sizeSplit is the paper's measurement for its §4/§6 workloads: FCT of
// the east-west mice that complete inside the measured window, and
// elephant goodput from the unlimited flows — or, when the workload
// has none (shuffle, the trace-driven mix), from each completed
// transfer over 1 MB. Flows to remote users are cross traffic, not
// measured. The drain value extends the run past the window so
// stragglers finish.
func sizeSplit(r *run) LoadResult {
	r.c.Run(r.opt.Warmup)
	r.g.ResetBaseline(r.c.Now())
	mice, big := &metrics.Dist{}, &metrics.Dist{}
	timeouts := 0
	servers := r.g.Servers()
	r.g.OnFlowDone = func(d wspec.FlowDone) {
		switch {
		case d.Dst >= servers:
		case d.Bytes < miceBytes:
			mice.Add(d.FCT.Milliseconds())
			if d.TimedOut {
				timeouts++
			}
		case d.Bytes > elephantBytes && d.FCT > 0:
			big.Add(float64(d.Bytes) * 8 / d.FCT.Seconds() / 1e9)
		}
	}
	r.c.Run(r.until() + r.params.Duration("drain"))
	res := r.harvest()
	res.FCT, res.MiceTimeouts = mice, timeouts
	if len(r.g.Throughputs(r.c.Now())) == 0 {
		res.MeanTput = big.Mean()
		res.Fairness = metrics.JainIndex(big.Samples())
	}
	loadMetrics(&res)
	return res
}

// groMicrobench is the Figure 5 measurement: per-flowcell out-of-order
// counts exposed to TCP, pushed segment sizes, and receiver CPU over
// the steady-state window (slow-start overshoot during warmup is
// excluded, like the paper's runs).
func groMicrobench(r *run) LoadResult {
	c := r.c
	r.c.Run(r.opt.Warmup)
	r.g.ResetBaseline(c.Now())
	conns := c.Conns()
	busy0 := make([]sim.Time, len(conns))
	logs := make([]*flowcellLog, len(conns))
	seg := &metrics.Dist{}
	for i, conn := range conns {
		busy0[i] = c.Hosts[conn.Dst].NIC.Stats.BusyTime
		// Bound now, so the log holds only the measured window.
		logs[i] = &flowcellLog{ep: conn.Receiver(), segKB: seg}
		c.Hosts[conn.Dst].VS.Register(conn.Flows()[0].Reverse(), logs[i])
	}
	start := c.Now()
	c.Run(r.until())

	res := r.harvest()
	ooo := &metrics.Dist{}
	var util float64
	for i, conn := range conns {
		for _, n := range outOfOrderCounts(logs[i].ids) {
			ooo.Add(float64(n))
		}
		util += c.Hosts[conn.Dst].NIC.Utilization(busy0[i], start)
	}
	res.Metrics = campaign.Values{
		"tput_gbps":    res.MeanTput,
		"cpu_util_pct": util / float64(len(conns)) * 100,
		"seg_kb_mean":  seg.Mean(),
	}
	addDistStats(res.Metrics, "ooo", ooo)
	addDistStats(res.Metrics, "seg_kb", seg)
	res.Dists = map[string]*metrics.Dist{"ooo_counts": ooo, "seg_kb": seg}
	return res
}

// flowcellLog sits between a receiving endpoint and its vSwitch and
// records the flowcell ID of every data segment GRO pushes up, in
// arrival order (the input of Figure 5a), and its size in KB into
// segKB (Figure 5b).
type flowcellLog struct {
	ep    vswitch.Endpoint
	ids   []uint32
	segKB *metrics.Dist
}

func (l *flowcellLog) DeliverSegment(s *packet.Segment) {
	if n := s.Len(); n > 0 {
		l.ids = append(l.ids, s.FlowcellID)
		l.segKB.Add(float64(n) / 1024)
	}
	l.ep.DeliverSegment(s)
}

// outOfOrderCounts computes, per flowcell of log, how many segments
// from other flowcells arrived between its first and last segment —
// the metric of Figure 5a (0 means reordering was fully masked).
// Flowcells are reported in order of first appearance.
func outOfOrderCounts(log []uint32) []int {
	type span struct{ first, last int }
	spans := make(map[uint32]*span)
	var order []uint32
	for i, fc := range log {
		if s, ok := spans[fc]; ok {
			s.last = i
		} else {
			spans[fc] = &span{first: i, last: i}
			order = append(order, fc)
		}
	}
	out := make([]int, 0, len(order))
	for _, fc := range order {
		s := spans[fc]
		n := 0
		for _, id := range log[s.first : s.last+1] {
			if id != fc {
				n++
			}
		}
		out = append(out, n)
	}
	return out
}

// cpuOverhead is the Figure 6 measurement: mean receiver CPU
// utilization across all hosts, sampled every 10 ms over the window.
func cpuOverhead(r *run) LoadResult {
	c := r.c
	const sample = 10 * sim.Millisecond
	var series metrics.Series
	lastBusy := make([]sim.Time, len(c.Hosts))
	var tick func()
	tick = func() {
		now := c.Eng.Now()
		if now >= r.opt.Warmup {
			var u float64
			for i, h := range c.Hosts {
				u += float64(h.NIC.Stats.BusyTime-lastBusy[i]) / float64(sample)
			}
			series.Add(now.Seconds(), u/float64(len(c.Hosts))*100)
		}
		for i, h := range c.Hosts {
			lastBusy[i] = h.NIC.Stats.BusyTime
		}
		if now < r.until() {
			c.Eng.Schedule(sample, tick)
		}
	}
	c.Eng.Schedule(sample, tick)
	r.window(r.opt.Warmup, r.until())
	res := r.harvest()
	res.Metrics = campaign.Values{"cpu_pct": series.Mean(), "tput_gbps": res.MeanTput}
	return res
}

// flowletSizes is the Figure 1 measurement: run until the workload's
// one sized transfer (its last connection) has fully arrived — the
// background elephants never finish — then read how the flowlet policy
// chopped it up.
func flowletSizes(r *run) LoadResult {
	c := r.c
	conns := c.Conns()
	transfer := conns[len(conns)-1]
	r.g.OnFlowDone = func(wspec.FlowDone) { c.StopRun() }
	c.RunAll()

	sizes := c.Hosts[transfer.Src].VS.Policy().(interface {
		FlowletSizes(packet.FlowKey) []int
	}).FlowletSizes(transfer.Flows()[0])
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	total := 0
	for _, s := range sizes {
		total += s
	}
	res := r.harvest()
	res.Metrics = campaign.Values{"flowlets": float64(len(sizes)), "largest_fraction": 0}
	for i, s := range sizes {
		if i >= 3 {
			break
		}
		res.Metrics[fmt.Sprintf("top%d_mb", i+1)] = float64(s) / 1e6
	}
	if total > 0 {
		res.Metrics["largest_fraction"] = float64(sizes[0]) / float64(total)
	}
	return res
}

// failover is the Figures 17/18 measurement: Presto's throughput and
// RTT in the symmetry, hardware fast-failover, and weighted
// multipathing stages around the death of the S1-L1 link.
func failover(r *run) LoadResult {
	c, g := r.c, r.g
	stage := r.opt.Duration / 3
	if stage < 20*sim.Millisecond {
		stage = 20 * sim.Millisecond
	}
	v := campaign.Values{}
	dists := map[string]*metrics.Dist{}
	// measure runs one stage over [from, to) and records it.
	measure := func(name string, from, to sim.Time) {
		c.Run(from)
		g.ResetBaseline(c.Now())
		c.Run(to)
		v[name+"_gbps"] = g.MeanTput(c.Now())
		rtt := &metrics.Dist{}
		for _, p := range r.probers {
			for i, at := range p.SampleAt {
				if at >= from && at < to {
					rtt.Add(p.RTTs[i])
				}
			}
		}
		addDistStats(v, name+"_rtt_ms", rtt)
		dists["rtt_"+name] = rtt
	}
	measure("symmetry", r.opt.Warmup, r.opt.Warmup+stage)

	// The first tree's link out of the first leaf (S1-L1 on the testbed)
	// goes down. Hardware failover activates after the fabric's latency
	// (5 ms); the controller's weighted mappings land after its 50 ms
	// control loop.
	failAt := c.Now()
	s1l1, _ := c.Ctrl.Trees()[0].NextLink(c.Topo.Leaves[0], c.Topo.Leaves[1])
	c.FailLink(s1l1)
	measure("failover", failAt+6*sim.Millisecond, failAt+48*sim.Millisecond)
	measure("weighted", failAt+60*sim.Millisecond, failAt+60*sim.Millisecond+stage)

	res := r.harvest()
	res.Metrics, res.Dists = v, dists
	return res
}

// ablation is the fixed-window stride measurement the design-choice
// sweeps share (20 ms warmup + 70 ms window regardless of opt), plus
// the extra metric the knob under study calls for: GRO timeout fires
// (alpha), switch loss (buffers) or leaf label rules (label modes).
func ablation(r *run) LoadResult {
	r.window(20*sim.Millisecond, 90*sim.Millisecond)
	res := r.harvest()
	c, v := r.c, campaign.Values{"tput_gbps": res.MeanTput}
	switch r.params.Enum("extra") {
	case "timeout_fires":
		var fires uint64
		for _, h := range c.Hosts {
			fires += h.NIC.GRO().Stats().TimeoutFires
		}
		v["timeout_fires"] = float64(fires)
	case "loss_pct":
		v["loss_pct"] = c.Net.LossRate() * 100
	case "leaf_rules":
		rules := 0
		for _, leaf := range c.Topo.Leaves {
			rules += c.Net.Switch(leaf).LabelCount()
		}
		v["leaf_rules"] = float64(rules)
	}
	res.Metrics = v
	return res
}

// podLoad is the pod-scale measurement. Every metric is bit-identical
// across shard counts (the events metric pins exactly that in golden
// gates), so Options.Shards only changes wall-clock time.
func podLoad(r *run) LoadResult {
	r.window(r.opt.Warmup, r.until())
	res := r.harvest()
	res.Metrics = campaign.Values{
		"tput_gbps": res.MeanTput,
		"fairness":  res.Fairness,
		"loss_pct":  res.LossRate * 100,
		"events":    float64(res.Events),
	}
	return res
}
