package presto

// Ablation benchmarks for the design choices §2.1/§3.2 argue for:
// flowcell granularity (64 KB = max TSO), the adaptive GRO hold
// (alpha), per-packet spraying without TSO, and the event engine's
// raw throughput. Run with e.g.
//
//	go test -bench=Ablation -benchmem

import (
	"fmt"
	"testing"

	"presto/internal/cluster"
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/sim"
	"presto/internal/tcp"
)

func fabricConfigWithBuffers(bytes int) fabric.Config {
	return fabric.Config{SwitchQueueBytes: bytes}
}

// BenchmarkAblationFlowcellSize sweeps the flowcell threshold: smaller
// cells balance better but reorder more and amortize TSO worse; larger
// cells approach flowlet-style collision behaviour. 64 KB (the paper's
// choice) should sit at the sweet spot.
func BenchmarkAblationFlowcellSize(b *testing.B) {
	for _, kb := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.New(cluster.Config{
					Topology:      Testbed(),
					Scheme:        cluster.Presto,
					Seed:          uint64(i + 1),
					FlowcellBytes: kb << 10,
				})
				el := startStride(b, c)
				c.Eng.Run(20 * sim.Millisecond)
				el.ResetBaseline(c.Eng.Now())
				c.Eng.Run(70 * sim.Millisecond)
				b.ReportMetric(el.MeanTput(c.Eng.Now()), "Gbps")
			}
		})
	}
}

// BenchmarkAblationGROAlpha sweeps the adaptive hold multiplier: too
// small misreads reordering as loss (spurious pushes), too large
// delays genuine loss recovery at flowcell boundaries.
func BenchmarkAblationGROAlpha(b *testing.B) {
	for _, alpha := range []float64{0.5, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.New(cluster.Config{
					Topology:  Testbed(),
					Scheme:    cluster.Presto,
					Seed:      uint64(i + 1),
					GROConfig: gro.PrestoConfig{Alpha: alpha},
				})
				el := startStride(b, c)
				c.Eng.Run(20 * sim.Millisecond)
				el.ResetBaseline(c.Eng.Now())
				c.Eng.Run(70 * sim.Millisecond)
				var fires uint64
				for _, h := range c.Hosts {
					fires += h.NIC.GRO().Stats().TimeoutFires
				}
				b.ReportMetric(el.MeanTput(c.Eng.Now()), "Gbps")
				b.ReportMetric(float64(fires), "gro-timeouts")
			}
		})
	}
}

// BenchmarkAblationPerPacket compares per-packet spraying (TSO off,
// §2.1's rejected design) against flowcells: the CPU model charges the
// full per-segment cost for every MTU packet.
func BenchmarkAblationPerPacket(b *testing.B) {
	for _, sys := range []System{SysPerPacket, SysPresto} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runCell(b, fabricSweep("ablation", "", []int{4}, []System{sys}, ScalabilityTopo)[0], benchOpt(uint64(i)))
				b.ReportMetric(r.MeanTput, "Gbps")
			}
		})
	}
}

// BenchmarkAblationSwitchBuffers sweeps port buffer depth: shallow
// buffers turn congestion into loss (RTO tails), deep ones into
// latency.
func BenchmarkAblationSwitchBuffers(b *testing.B) {
	for _, kb := range []int{256, 512, 2048, 8192} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.New(cluster.Config{
					Topology: Testbed(),
					Scheme:   cluster.Presto,
					Seed:     uint64(i + 1),
					Fabric:   fabricConfigWithBuffers(kb << 10),
				})
				el := startStride(b, c)
				c.Eng.Run(20 * sim.Millisecond)
				el.ResetBaseline(c.Eng.Now())
				c.Eng.Run(70 * sim.Millisecond)
				b.ReportMetric(el.MeanTput(c.Eng.Now()), "Gbps")
				b.ReportMetric(c.Net.LossRate()*100, "loss%")
			}
		})
	}
}

// BenchmarkEngineEventThroughput measures the raw discrete-event
// engine: how many self-rescheduling timer events per second the
// substrate sustains.
func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(sim.Microsecond, tick)
		}
	}
	eng.Schedule(0, tick)
	b.ResetTimer()
	eng.RunAll()
}

// BenchmarkFabricPacketForwarding measures the per-packet cost of the
// fabric (pipe + switch) without transport on top.
func BenchmarkFabricPacketForwarding(b *testing.B) {
	c := cluster.New(cluster.Config{Topology: Testbed(), Scheme: cluster.Presto, Seed: 1})
	conn := c.Dial(0, 8)
	conn.SetUnlimited(true)
	b.ResetTimer()
	// Each iteration simulates 1 ms of a line-rate flow (~800 packets
	// through 4 hops).
	for i := 0; i < b.N; i++ {
		c.Eng.Run(c.Eng.Now() + sim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Eng.Executed)/float64(b.N), "events/iter")
}

// BenchmarkAblationDCTCP compares Presto over CUBIC against Presto
// over DCTCP (ECN marking at K=200 KB ≈ C·RTT for this fabric's
// ~150 µs effective RTT): same goodput, shorter queues — evidence
// that edge-based load balancing composes with modern congestion
// control.
func BenchmarkAblationDCTCP(b *testing.B) {
	for _, cc := range []string{"cubic", "dctcp"} {
		b.Run(cc, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ecn := 0
				if cc == "dctcp" {
					ecn = 200 << 10
				}
				c := cluster.New(cluster.Config{
					Topology: Testbed(),
					Scheme:   cluster.Presto,
					Seed:     uint64(i + 1),
					TCP:      tcp.Config{CC: cc},
					Fabric:   fabric.Config{ECNThresholdBytes: ecn},
				})
				el := startStride(b, c)
				p := c.NewProber(0, 8, sim.Millisecond)
				p.Start()
				c.Eng.Run(20 * sim.Millisecond)
				el.ResetBaseline(c.Eng.Now())
				c.Eng.Run(70 * sim.Millisecond)
				b.ReportMetric(el.MeanTput(c.Eng.Now()), "Gbps")
				b.ReportMetric(p.Samples.Percentile(99), "rtt-p99-ms")
			}
		})
	}
}

// BenchmarkAblationTunnelMode compares per-host shadow MACs against
// switch-to-switch tunnel labels (identical datapath behaviour, far
// fewer rules).
func BenchmarkAblationTunnelMode(b *testing.B) {
	for _, tunnel := range []bool{false, true} {
		name := "per-host-labels"
		if tunnel {
			name = "tunnel-labels"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cluster.Config{Topology: Testbed(), Scheme: cluster.Presto, Seed: uint64(i + 1)}
				cfg.Ctrl.TunnelMode = tunnel
				c := cluster.New(cfg)
				el := startStride(b, c)
				c.Eng.Run(20 * sim.Millisecond)
				el.ResetBaseline(c.Eng.Now())
				c.Eng.Run(70 * sim.Millisecond)
				rules := 0
				for _, leaf := range c.Topo.Leaves {
					rules += c.Net.Switch(leaf).LabelCount()
				}
				b.ReportMetric(el.MeanTput(c.Eng.Now()), "Gbps")
				b.ReportMetric(float64(rules), "leaf-rules")
			}
		})
	}
}
