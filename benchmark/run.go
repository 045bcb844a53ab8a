package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"presto/internal/cluster"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/tcp"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

// clusterSeed is the simulator's own random stream (ECMP's path
// pinning draws from it). It is a property of the system under test,
// not of the workload, so it is a constant: -seed varies the generated
// traffic only. Seeding both would let hash-collision luck, not the
// traffic, decide elephants-ecmp's goodput (76-118 Gbps across seeds).
const clusterSeed = 1

// runOpts selects how one repetition runs.
type runOpts struct {
	// Seed generates the workload's traffic.
	Seed uint64
	// Shards overrides the workload's shard count when > 0 (the traced
	// pod-shards2 run repeats its input serially).
	Shards int
	// Trace records spans, slices the window, captures TapHost's
	// arrivals and runs the replay drivers.
	Trace   bool
	TapHost int
}

// runResult is what one repetition (one child process) reports.
//
// Host holds host-kind values: wall time, allocations, memory — noisy,
// compared within bounds. Sim holds sim-kind values: exact counts and
// figures derived only from them — a deterministic simulator must
// repeat these bit-for-bit for one seed. Both are keyed by metric name.
type runResult struct {
	Workload  string             `json:"workload"`
	SpecHash  string             `json:"spec_hash"`
	Shards    int                `json:"shards"`
	Host      map[string]float64 `json:"host"`
	Sim       map[string]float64 `json:"sim"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Checks lists every correctness check that failed (empty = pass).
	Checks []string `json:"checks,omitempty"`
	// RxByHost is packets received per host in the window; the parent
	// picks the traced run's tap host from it.
	RxByHost []uint64 `json:"rx_by_host"`
	Spans    []span   `json:"spans,omitempty"`
}

// value looks a metric up where its kind says it lives.
func (r *runResult) value(def metricDef) (float64, bool) {
	m := r.Host
	if def.Kind == kindSim {
		m = r.Sim
	}
	v, ok := m[def.Name]
	return v, ok
}

// sizedFlow is one finite flow the spec generator opened: conn indexes
// Cluster.Conns().
type sizedFlow struct {
	conn  int
	at    sim.Time
	bytes int
}

// traffic is the running workload: the spec generator (nil when the
// harness dialed the traffic itself) and every sized flow it opened.
// Conns that are not sized flows are unlimited elephants.
type traffic struct {
	gen   *wspec.Generator
	sized []sizedFlow
}

// startTraffic compiles and starts the workload's spec, or — for the
// sharded workload, which the serial-only generator cannot drive —
// dials one cross-pod elephant per host (host i to the same position
// one pod over) with seed-drawn start times inside the warm-up.
func startTraffic(w workload, ws *wspec.Spec, c *cluster.Cluster, seed uint64) (*traffic, error) {
	t := &traffic{}
	if ws == nil {
		n := c.Topo.NumHosts()
		perPod := n / c.Topo.NumPods
		rng := sim.NewRNG(seed)
		for i := 0; i < n; i++ {
			src := packet.HostID(i)
			conn := c.Dial(src, packet.HostID((i+perPod)%n))
			// SetUnlimited only touches the source endpoint, so the
			// start event belongs on the source host's engine.
			c.Net.EngineFor(c.Topo.HostNode(src)).Schedule(rng.Duration(w.Warmup/4), func() {
				conn.SetUnlimited(true)
			})
		}
		return t, nil
	}
	g, err := wspec.Compile(ws, c, seed)
	if err != nil {
		return nil, err
	}
	g.OnFlowStart = func(fs wspec.FlowStart) {
		// OnFlowStart fires just before the generator dials, so the new
		// connection takes the next index.
		t.sized = append(t.sized, sizedFlow{conn: len(c.Conns()), at: sim.Time(fs.At), bytes: fs.Bytes})
	}
	g.Start(w.Warmup + w.Window)
	t.gen = g
	return t, nil
}

// runOnce runs one repetition of w in this process: set-up (topology,
// cluster, traffic, simulated warm-up), the measured window in
// windowSlices slices, then harvest and correctness checks. Warm-up
// and slices are paced: cut into Run calls with a calibration chunk
// between them that measures how fast the machine is running. The
// reported host times are the clock's readings (kept as *_raw_s)
// divided by that slowdown; see calib.go.
func runOnce(w workload, o runOpts) (*runResult, error) {
	shards := w.Shards
	if o.Shards > 0 {
		shards = o.Shards
	}
	ws, err := w.spec()
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.Name, Shards: shards, Host: map[string]float64{}}
	if ws != nil {
		res.SpecHash = ws.Hash()
	}
	var tr *tracer
	if o.Trace {
		tr = newTracer(w.Name)
	}
	endRun := tr.begin("run")
	cal := newCalibrator()

	// Set-up.
	setupChunks := []time.Duration{cal.chunk()}
	t0 := time.Now()
	end := tr.begin("topo.build")
	tp := w.Topo()
	end(nil)
	tTopo := time.Now()

	end = tr.begin("cluster.new")
	cfg := cluster.Config{Topology: tp, Scheme: w.Scheme, Seed: clusterSeed, Shards: shards}
	cfg.TCP.Handshake = w.Handshake
	c := cluster.New(cfg)
	end(nil)
	tNew := time.Now()

	end = tr.begin("spec.compile")
	tf, err := startTraffic(w, ws, c, o.Seed)
	end(nil)
	if err != nil {
		return nil, err
	}
	tCompile := time.Now()

	var capture *capture
	if o.Trace {
		capture = tapHost(c, packet.HostID(o.TapHost))
	}

	end = tr.begin("warmup")
	warm, setupChunks := pace(c, cal, 0, w.Warmup, setupChunks)
	end(nil)
	setup := tCompile.Sub(t0) + warm
	res.Host["setup_raw_s"] = setup.Seconds()
	res.Host["setup_s"] = setup.Seconds() / slowdown(setupChunks)
	res.Host["topo.build_s"] = tTopo.Sub(t0).Seconds()
	res.Host["cluster.new_s"] = tNew.Sub(tTopo).Seconds()
	res.Host["spec.compile_s"] = tCompile.Sub(tNew).Seconds()

	// Measured window.
	if tf.gen != nil {
		tf.gen.ResetBaseline(c.Now())
	}
	before := snapshot(c)
	baseBytes := make([]uint64, len(c.Conns()))
	for i, conn := range c.Conns() {
		baseBytes[i] = conn.Delivered()
	}
	rxBefore := make([]uint64, len(c.Hosts))
	for i, h := range c.Hosts {
		rxBefore[i] = h.NIC.Stats.RxPackets
	}
	if capture != nil {
		capture.on = true
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	rawWall, calib, slow := runSliced(c, w, tr, cal, res.Host)
	cpu := processCPU() - cpu0 - calib // a chunk keeps one thread busy
	runtime.ReadMemStats(&m1)
	if capture != nil {
		capture.on = false
	}

	// Harvest.
	end = tr.begin("harvest")
	after := snapshot(c)
	res.Sim = windowStats(c, w, before, after)
	res.RxByHost = make([]uint64, len(c.Hosts))
	for i, h := range c.Hosts {
		res.RxByHost[i] = h.NIC.Stats.RxPackets - rxBefore[i]
	}
	harvestTraffic(c, w, tf, baseBytes, res)
	res.Checks = append(res.Checks, checkCluster(c, tp, res.Sim["goodput_gbps"])...)
	end(nil)

	pkts := res.Sim["fabric.pkts_delivered"]
	events := res.Sim["sim.events"]
	mallocs := float64(m1.Mallocs - m0.Mallocs)
	wallNs := float64(rawWall.Nanoseconds()) / slow
	res.Host["wall_raw_s"] = rawWall.Seconds()
	res.Host["host.slowdown"] = slow
	res.Host["wall_s"] = wallNs / 1e9
	res.Host["ns_per_pkt"] = wallNs / pkts
	res.Host["allocs_per_pkt"] = mallocs / pkts
	res.Host["alloc_bytes_per_pkt"] = float64(m1.TotalAlloc-m0.TotalAlloc) / pkts
	res.Host["sim.ns_per_event"] = wallNs / events
	res.Host["sim.allocs_per_event"] = mallocs / events
	res.Host["sim.pending_max"] = peakPending(c)
	res.Host["shard.cpu_util"] = cpu.Seconds() / (rawWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	res.Host["host.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	res.Host["host.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	res.Host["host.gc_cpu_frac"] = m1.GCCPUFraction
	res.Host["host.heap_inuse_end_mb"] = float64(m1.HeapInuse) / (1 << 20)
	res.Host["host.heap_objects_end"] = float64(m1.HeapObjects)

	if o.Trace {
		err := runDrivers(tr, res.Host, driverInput{
			w: w, c: c, tapped: packet.HostID(o.TapHost), capture: capture.pkts, sized: tf.sized,
			pendingMean: res.Host["sim.pending_mean"],
		})
		if err != nil {
			return nil, err
		}
	}
	endRun(nil)
	res.Spans = tr.done()
	res.Host["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// snapshot reads every public cumulative counter the window statistics
// are differenced from.
func snapshot(c *cluster.Cluster) map[string]float64 {
	s := map[string]float64{
		"sim.events":            float64(c.Executed()),
		"fabric.pkts_delivered": float64(c.Net.TotalDelivered()),
		"fabric.drops":          float64(fabricDrops(c)),
		"cluster.conns_opened":  float64(len(c.Conns())),
	}
	for _, h := range c.Hosts {
		n, g, v := &h.NIC.Stats, h.NIC.GRO().Stats(), &h.VS.Stats
		s["nic.tx_segments"] += float64(n.TxSegments)
		s["nic.tx_packets"] += float64(n.TxPackets)
		s["nic.rx_packets"] += float64(n.RxPackets)
		s["nic.rx_drops"] += float64(n.RxDrops)
		s["nic.polls"] += float64(n.Polls)
		s["nic.busy_ns"] += float64(n.BusyTime)
		s["gro.pkts_in"] += float64(g.PacketsIn)
		s["gro.segments_out"] += float64(g.SegmentsOut)
		s["gro.merges"] += float64(g.Merges)
		s["gro.reorder_holds"] += float64(g.ReorderHolds)
		s["gro.timeout_fires"] += float64(g.TimeoutFires)
		s["vswitch.segments_out"] += float64(v.SegmentsOut)
		s["vswitch.flowcells"] += float64(v.Flowcells)
	}
	for _, conn := range c.Conns() {
		for _, e := range []*tcp.Endpoint{conn.Sender(), conn.Receiver()} {
			if e == nil {
				continue // MPTCP connections expose no plain endpoints
			}
			st := &e.Stats
			s["tcp.segments_sent"] += float64(st.SegmentsSent)
			s["tcp.acks_sent"] += float64(st.AcksSent)
			s["tcp.retransmits"] += float64(st.Retransmits)
			s["tcp.timeouts"] += float64(st.Timeouts)
			s["tcp.dupacks"] += float64(st.DupAcks)
			s["tcp.ooo_segments"] += float64(st.OOOSegments)
			s["tcp.spurious_recoveries"] += float64(st.SpuriousRecover)
		}
	}
	return s
}

// windowStats turns two snapshots into the window's exact statistics:
// counter deltas, the ratios derived from them, and end-of-run
// watermarks.
func windowStats(c *cluster.Cluster, w workload, before, after map[string]float64) map[string]float64 {
	s := map[string]float64{}
	for k, v := range after {
		s[k] = v - before[k]
	}
	s["sim.events_per_pkt"] = ratio(s["sim.events"], s["fabric.pkts_delivered"])
	s["fabric.drop_ratio"] = ratio(s["fabric.drops"], s["nic.tx_packets"])
	s["nic.pkts_per_poll"] = ratio(s["nic.rx_packets"], s["nic.polls"])
	s["nic.busy_frac"] = ratio(s["nic.busy_ns"], float64(len(c.Hosts))*float64(w.Window))
	s["gro.merge_ratio"] = ratio(s["gro.merges"], s["gro.pkts_in"])
	s["gro.pkts_per_segment"] = ratio(s["gro.pkts_in"], s["gro.segments_out"])
	s["tcp.retrans_ratio"] = ratio(s["tcp.retransmits"], s["tcp.segments_sent"])

	for _, l := range c.Topo.Links {
		for _, from := range []topo.NodeID{l.A, l.B} {
			if q := float64(c.Net.Pipe(l.ID, from).MaxQueuedBytes); q > s["fabric.max_queue_bytes"] {
				s["fabric.max_queue_bytes"] = q
			}
		}
	}
	var perPath []float64 // flowcells per path index, all hosts, whole run
	for _, h := range c.Hosts {
		for p, n := range h.VS.PathFlowcells() {
			if p == len(perPath) {
				perPath = append(perPath, 0)
			}
			perPath[p] += float64(n)
		}
		if r := float64(h.NIC.Stats.MaxRing); r > s["nic.max_ring"] {
			s["nic.max_ring"] = r
		}
		if n, ok := h.VS.TelemetrySnapshot()["registered_flows"].(uint64); ok {
			s["vswitch.registered_flows_end"] += float64(n)
		}
	}
	var pathMax, pathSum float64
	for _, n := range perPath {
		pathMax = max(pathMax, n)
		pathSum += n
	}
	s["vswitch.path_imbalance"] = ratio(pathMax*float64(len(perPath)), pathSum)
	s["cluster.conns_retained_end"] = float64(len(c.Conns()))
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// harvestTraffic fills the traffic-level statistics — goodput,
// elephant rates, flow completion times — and counts operations.
// Attempted = elephants + sized flows started at least Grace before
// window end. Such a flow is late when it is unfinished at window end
// or finished only after an RTO. On a run where the simulated network
// lost packets, lateness is modelled behaviour (ECMP's mice timeouts
// are the paper's point) and is reported as spec.flows_late; on a
// lossless run nothing explains it, so late flows are failures, as is
// an elephant that delivered nothing in the window.
func harvestTraffic(c *cluster.Cluster, w workload, tf *traffic, baseBytes []uint64, res *runResult) {
	conns := c.Conns()
	isSized := make([]bool, len(conns))
	for _, f := range tf.sized {
		isSized[f.conn] = true
	}
	var total uint64
	var elephants []float64
	hash := fnv.New64a()
	for i, conn := range conns {
		d := conn.Delivered()
		fmt.Fprintf(hash, "%d,", d)
		if conn.Acked() > d {
			res.Checks = append(res.Checks, fmt.Sprintf("conn %d: acked %d > delivered %d", i, conn.Acked(), d))
		}
		delta := d
		if i < len(baseBytes) {
			delta -= baseBytes[i]
		}
		total += delta
		if !isSized[i] {
			elephants = append(elephants, float64(delta)*8/w.Window.Seconds()/1e9)
			res.Attempted++
			if delta == 0 {
				res.Failed++
			}
		}
	}
	deadline := w.Warmup + w.Window - w.Grace
	late := 0
	for _, f := range tf.sized {
		conn := conns[f.conn]
		d := conn.Delivered()
		if d > uint64(f.bytes) {
			res.Checks = append(res.Checks, fmt.Sprintf("conn %d: delivered %d of a %d-byte flow", f.conn, d, f.bytes))
		}
		if f.at > deadline {
			continue
		}
		res.Attempted++
		if d != uint64(f.bytes) {
			late++
		}
	}

	s := res.Sim
	s["goodput_gbps"] = float64(total) * 8 / w.Window.Seconds() / 1e9
	// 52 bits of the per-connection byte counts' hash survive float64.
	s["cluster.conn_bytes_hash"] = float64(hash.Sum64() & (1<<52 - 1))
	var sum float64
	for _, e := range elephants {
		sum += e
	}
	s["spec.elephant_mean_gbps"] = ratio(sum, float64(len(elephants)))
	s["spec.elephant_jain"] = metrics.JainIndex(elephants)

	fct := &metrics.Dist{}
	s["spec.flows_started"], s["spec.flows_finished"] = 0, 0
	if tf.gen != nil {
		for _, cr := range tf.gen.Results(c.Now()) {
			s["spec.flows_started"] += float64(cr.Started)
			s["spec.flows_finished"] += float64(cr.Finished)
			late += cr.Timeouts
			for _, v := range cr.FCT.Samples() {
				fct.Add(v)
			}
		}
	}
	s["spec.flows_late"] = float64(late)
	if lossless(c) {
		res.Failed += late
	}
	s["spec.fct_samples"] = float64(fct.N())
	s["spec.fct_p50_ms"] = fct.Percentile(50)
	s["spec.fct_p99_ms"] = fct.Percentile(99)
}

// fabricDrops counts packets the fabric dropped for any reason: full
// queue, dead link, hop guard.
func fabricDrops(c *cluster.Cluster) uint64 {
	return c.Net.TotalDrops() + c.Net.TotalDropsDown() + c.Net.TotalHopDrops()
}

// lossless reports whether the run so far dropped no packet anywhere:
// not in the fabric, not in a NIC ring.
func lossless(c *cluster.Cluster) bool {
	dropped := fabricDrops(c)
	for _, h := range c.Hosts {
		dropped += h.NIC.Stats.RxDrops
	}
	return dropped == 0
}

// checkCluster runs the whole-system correctness checks on the
// cumulative counters at the end of a run.
func checkCluster(c *cluster.Cluster, tp *topo.Topology, goodputGbps float64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Packet conservation: everything a NIC emitted was delivered,
	// dropped, or is still in the fabric — waiting in a pipe's queue or
	// propagating, and a propagating packet owns a pending event.
	var tx, queued int64
	for _, h := range c.Hosts {
		tx += int64(h.NIC.Stats.TxPackets)
	}
	for _, l := range tp.Links {
		for _, from := range []topo.NodeID{l.A, l.B} {
			p := c.Net.Pipe(l.ID, from)
			queued += int64(p.EnqPackets) - int64(p.Drops) - int64(p.DropsDown) - int64(p.TxPackets)
		}
	}
	gone := int64(c.Net.TotalDelivered() + fabricDrops(c))
	if inFlight := tx - gone; queued < 0 || inFlight < queued || inFlight-queued > int64(pendingEvents(c)) {
		fail("packet conservation: tx %d, delivered+dropped %d, queued %d, pending events %d", tx, gone, queued, pendingEvents(c))
	}

	var lineRate float64
	for i, h := range c.Hosts {
		g := h.NIC.GRO().Stats()
		var reasons uint64
		for _, n := range g.FlushReasons {
			reasons += n
		}
		if reasons != g.SegmentsOut {
			fail("host %d gro: flush reasons sum to %d, segments out %d", i, reasons, g.SegmentsOut)
		}
		if limit := h.NIC.Stats.RxPackets * packet.MSS; g.BytesOut > limit {
			fail("host %d gro: pushed %d bytes up from at most %d received", i, g.BytesOut, limit)
		}
		lineRate += float64(tp.Links[tp.HostLink(packet.HostID(i))].BitsPerSec) / 1e9
	}
	if goodputGbps > lineRate {
		fail("goodput %.3f Gbps exceeds the hosts' %.0f Gbps of line rate", goodputGbps, lineRate)
	}
	return bad
}

// pendingEvents returns the number of queued events across engines.
func pendingEvents(c *cluster.Cluster) int {
	if g := c.Group(); g != nil {
		return g.Pending()
	}
	return c.Eng.Pending()
}

// processCPU returns user+system CPU time consumed by this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
