package main

import (
	"math"
	"sort"
)

// Metric kinds. The simulator is deterministic, so what it reports
// splits cleanly: host metrics depend on the machine and are compared
// within a bound; sim metrics are exact functions of the inputs and
// must repeat bit-for-bit for one seed; driver metrics are host
// timings of a replay driver calling one layer's public functions.
const (
	kindHost   = "host"
	kindSim    = "sim"
	kindDriver = "driver"
)

// metricDef declares one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before it
// counts as a regression (per-layer metrics carry none).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   string
	Bound  float64
}

// endToEnd lists what a user of the simulator sees, per workload.
// BENCHMARK.json carries the same table; the smoke test pins the two
// together. fct_p99_ms and failed_ratio are printed too but live
// outside this table: the sharded workload has no sized flows, and a
// ratio that is 0 on a healthy run cannot carry a relative bound — the
// result's attempted/failed counts carry it instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", kindHost, 0.25},
	{"wall_s", "s", "lower", kindHost, 0.25},
	{"ns_per_pkt", "ns", "lower", kindHost, 0.20},
	{"allocs_per_pkt", "count", "lower", kindHost, 0.05},
	{"alloc_bytes_per_pkt", "B", "lower", kindHost, 0.07},
	{"peak_rss_mb", "MB", "lower", kindHost, 0.20},
	{"goodput_gbps", "Gbps", "higher", kindSim, 0.25},
}

// asRead lists the host times as the clock read them and the
// machine's slowdown they were divided by to give setup_s and wall_s.
// Every untraced run prints them and keeps them in its result file;
// they carry no bound, because they move with the host's load.
var asRead = []metricDef{
	{"setup_raw_s", "s", "lower", kindHost, 0},
	{"wall_raw_s", "s", "lower", kindHost, 0},
	{"host.slowdown", "ratio", "lower", kindHost, 0},
}

// perLayer lists the traced run's attribution metrics, layer by layer.
var perLayer = []metricDef{
	// sim: the event engine.
	{"sim.events", "count", "lower", kindSim, 0},
	{"sim.events_per_pkt", "count", "lower", kindSim, 0},
	{"sim.ns_per_event", "ns", "lower", kindHost, 0},
	{"sim.allocs_per_event", "count", "lower", kindHost, 0},
	{"sim.pending_max", "count", "lower", kindHost, 0},
	{"sim.slice_first_ns_per_event", "ns", "lower", kindHost, 0},
	{"sim.slice_last_ns_per_event", "ns", "lower", kindHost, 0},
	{"sim.slice_drift", "ratio", "lower", kindHost, 0},
	{"sim.driver.schedule_ns", "ns", "lower", kindDriver, 0},
	{"sim.driver.timer_reset_ns", "ns", "lower", kindDriver, 0},
	// shard: window barriers and cross-shard handoff.
	{"shard.speedup_vs_serial", "ratio", "higher", kindHost, 0},
	{"shard.cpu_util", "ratio", "higher", kindHost, 0},
	{"shard.identical", "count", "higher", kindSim, 0},
	// fabric: pipes and switches.
	{"fabric.pkts_delivered", "count", "higher", kindSim, 0},
	{"fabric.drops", "count", "lower", kindSim, 0},
	{"fabric.drop_ratio", "ratio", "lower", kindSim, 0},
	{"fabric.max_queue_bytes", "B", "lower", kindSim, 0},
	{"fabric.driver.forward_ns", "ns", "lower", kindDriver, 0},
	{"fabric.driver.forward_allocs", "count", "lower", kindDriver, 0},
	// nic: TSO split, RX ring, poll loop, CPU model.
	{"nic.tx_segments", "count", "higher", kindSim, 0},
	{"nic.tx_packets", "count", "higher", kindSim, 0},
	{"nic.rx_packets", "count", "higher", kindSim, 0},
	{"nic.rx_drops", "count", "lower", kindSim, 0},
	{"nic.polls", "count", "lower", kindSim, 0},
	{"nic.pkts_per_poll", "count", "higher", kindSim, 0},
	{"nic.max_ring", "count", "lower", kindSim, 0},
	{"nic.busy_frac", "ratio", "lower", kindSim, 0},
	{"nic.driver.tso_ns_per_pkt", "ns", "lower", kindDriver, 0},
	{"nic.driver.tso_allocs_per_pkt", "count", "lower", kindDriver, 0},
	{"nic.driver.rx_ns_per_pkt", "ns", "lower", kindDriver, 0},
	// gro: receive offload.
	{"gro.pkts_in", "count", "higher", kindSim, 0},
	{"gro.segments_out", "count", "lower", kindSim, 0},
	{"gro.merge_ratio", "ratio", "higher", kindSim, 0},
	{"gro.pkts_per_segment", "count", "higher", kindSim, 0},
	{"gro.reorder_holds", "count", "lower", kindSim, 0},
	{"gro.timeout_fires", "count", "lower", kindSim, 0},
	{"gro.driver.receive_ns_per_pkt", "ns", "lower", kindDriver, 0},
	{"gro.driver.flush_ns", "ns", "lower", kindDriver, 0},
	{"gro.driver.allocs_per_pkt", "count", "lower", kindDriver, 0},
	// tcp: transport endpoints.
	{"tcp.segments_sent", "count", "higher", kindSim, 0},
	{"tcp.acks_sent", "count", "lower", kindSim, 0},
	{"tcp.retransmits", "count", "lower", kindSim, 0},
	{"tcp.timeouts", "count", "lower", kindSim, 0},
	{"tcp.dupacks", "count", "lower", kindSim, 0},
	{"tcp.ooo_segments", "count", "lower", kindSim, 0},
	{"tcp.spurious_recoveries", "count", "lower", kindSim, 0},
	{"tcp.retrans_ratio", "ratio", "lower", kindSim, 0},
	{"tcp.driver.ack_ns", "ns", "lower", kindDriver, 0},
	{"tcp.driver.data_ns", "ns", "lower", kindDriver, 0},
	{"tcp.driver.conn_ns", "ns", "lower", kindDriver, 0},
	// vswitch: the edge load-balancing policy.
	{"vswitch.segments_out", "count", "higher", kindSim, 0},
	{"vswitch.flowcells", "count", "higher", kindSim, 0},
	{"vswitch.path_imbalance", "ratio", "lower", kindSim, 0},
	{"vswitch.registered_flows_end", "count", "lower", kindSim, 0},
	{"vswitch.driver.select_ns", "ns", "lower", kindDriver, 0},
	{"vswitch.driver.select_allocs", "count", "lower", kindDriver, 0},
	// cluster / topo: assembly and connection bookkeeping.
	{"topo.build_s", "s", "lower", kindHost, 0},
	{"cluster.new_s", "s", "lower", kindHost, 0},
	{"cluster.conns_opened", "count", "higher", kindSim, 0},
	{"cluster.conns_retained_end", "count", "lower", kindSim, 0},
	{"cluster.driver.dial_close_ns", "ns", "lower", kindDriver, 0},
	// workload/spec: the traffic generator and what the traffic saw.
	{"spec.compile_s", "s", "lower", kindHost, 0},
	{"spec.flows_started", "count", "higher", kindSim, 0},
	{"spec.flows_finished", "count", "higher", kindSim, 0},
	{"spec.flows_late", "count", "lower", kindSim, 0},
	{"spec.fct_samples", "count", "higher", kindSim, 0},
	{"spec.fct_p50_ms", "ms", "lower", kindSim, 0},
	{"spec.fct_p99_ms", "ms", "lower", kindSim, 0},
	{"spec.elephant_mean_gbps", "Gbps", "higher", kindSim, 0},
	{"spec.elephant_jain", "ratio", "higher", kindSim, 0},
	// host runtime and the cost of tracing itself.
	{"host.slowdown", "ratio", "lower", kindHost, 0},
	{"host.gc_cycles", "count", "lower", kindHost, 0},
	{"host.gc_pause_ms", "ms", "lower", kindHost, 0},
	{"host.gc_cpu_frac", "ratio", "lower", kindHost, 0},
	{"host.heap_inuse_end_mb", "MB", "lower", kindHost, 0},
	{"host.heap_objects_end", "count", "lower", kindHost, 0},
	{"trace.overhead_ratio", "ratio", "lower", kindHost, 0},
	{"trace.identical", "count", "higher", kindSim, 0},
}

// summary is one metric's value over the repetitions that measured it.
type summary struct {
	Value   float64   `json:"value"` // median of Samples
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Count   int       `json:"count"`
	Samples []float64 `json:"samples"`
}

func summarize(d metricDef, samples []float64) summary {
	s := summary{Unit: d.Unit, Kind: d.Kind, Count: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	s.Value, s.Min, s.Max = median(samples), samples[0], samples[0]
	for _, v := range samples {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// median returns the middle of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
