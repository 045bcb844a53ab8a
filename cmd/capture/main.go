// Command capture runs a workload and records every flow start into a
// replayable flow log — the presto-workload/1 trace format that a
// spec's trace source (or the `trace` preset) feeds back through the
// generator, closing the capture→replay loop used by
// examples/tracedriven. It can additionally capture every packet
// arriving at one receiver into a classic pcap file (openable in
// tcpdump/Wireshark — flowcell IDs ride in TCP option 253) and print
// the offline trace analysis: per-flow goodput, reordering fraction
// (the §5 flowlet-trace metric), and flowlet sizes.
//
//	capture -flows flows.csv                          # record mice-heavy flow starts
//	capture -workload examples/specs/incast32.json -flows flows.jsonl
//	capture -system flowlet100 -analyze -out /tmp/presto.pcap
//
// The flow-log encoding follows the -flows extension: .jsonl writes
// JSON Lines, anything else CSV. Times are normalized so the first
// flow starts at 0; replay it with a spec whose trace.path points at
// the file. The packet-level outputs (pcap + analysis) are opt-in via
// -out and -analyze.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"presto"
	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/trace"
	wspec "presto/internal/workload/spec"
)

func main() {
	var (
		system   = flag.String("system", "presto", "ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet, or a scheme registry spec")
		workload = flag.String("workload", "mice-heavy", "workload-spec preset name or spec.json path to drive the capture")
		flows    = flag.String("flows", "capture.flows.csv", "replayable flow-start log output (.jsonl → JSONL, else CSV; empty = skip)")
		out      = flag.String("out", "", "pcap output path (empty = skip packet capture)")
		analyze  = flag.Bool("analyze", false, "print the offline per-flow trace analysis of the tapped receiver")
		duration = flag.Duration("duration", 50*time.Millisecond, "simulated capture window")
		seed     = flag.Uint64("seed", 1, "random seed")
		gap      = flag.Duration("gap", 500*time.Microsecond, "flowlet gap for the offline analysis")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sys, err := presto.ParseSystem(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tp := topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{})
	if sys.Optimal() {
		tp = presto.OptimalTopo(tp.NumHosts())
	}
	cfg := cluster.Config{
		Topology:     tp,
		Seed:         *seed,
		Scheme:       cluster.Scheme(sys.SchemeName()),
		SchemeParams: sys.SchemeParams(),
	}

	ws, err := wspec.Resolve(*workload)
	if err != nil {
		fail(fmt.Errorf("workload: %w", err))
	}

	c := cluster.New(cfg)

	// Packet tap at host 2, feeding the pcap writer and/or the offline
	// analysis — only when either output is requested.
	var recs []trace.Record
	var pcap *trace.Writer
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("closing %s: %w", *out, err))
			}
		}()
		pcap = trace.NewWriter(f)
	}
	if pcap != nil || *analyze {
		c.TapHost(2, func(at sim.Time, p *packet.Packet) {
			if *analyze {
				recs = append(recs, trace.Record{At: at, Packet: p.Clone()})
			}
			if pcap != nil {
				if err := pcap.WritePacket(at, p); err != nil {
					fail(fmt.Errorf("pcap write: %w", err))
				}
			}
		})
	}

	g, err := wspec.Compile(ws, c, *seed)
	if err != nil {
		fail(err)
	}
	var starts []wspec.FlowStart
	if *flows != "" {
		g.OnFlowStart = func(f wspec.FlowStart) { starts = append(starts, f) }
	}
	g.Start(sim.FromDuration(*duration))
	c.Eng.Run(sim.FromDuration(*duration))

	fmt.Printf("workload %s (spec %s) on %s: %v simulated\n", ws.Name, ws.Hash(), *system, *duration)
	for _, cr := range g.Results(c.Eng.Now()) {
		fmt.Printf("  client %-13s started=%d finished=%d bytes=%d\n", cr.ID+":", cr.Started, cr.Finished, cr.BytesMoved)
	}

	if *flows != "" {
		if err := writeFlowLog(*flows, starts); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d flow starts to %s (replay with a spec trace source)\n", len(starts), *flows)
	}
	if pcap != nil {
		fmt.Printf("captured %d frames to %s\n", pcap.Count(), *out)
	}
	if *analyze {
		printAnalysis(recs, sim.FromDuration(*gap), *gap)
	}
}

// writeFlowLog writes the recorded starts, normalized so the first
// flow is at t=0 (replay re-anchors at the trace client's window
// start anyway), choosing the encoding by file extension.
func writeFlowLog(path string, starts []wspec.FlowStart) error {
	if len(starts) == 0 {
		return fmt.Errorf("no flow starts recorded; nothing to write to %s", path)
	}
	base := starts[0].At
	out := make([]wspec.FlowStart, len(starts))
	for i, f := range starts {
		f.At -= base
		out[i] = f
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = wspec.WriteFlowLogJSONL(f, out)
	} else {
		err = wspec.WriteFlowLogCSV(f, out)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printAnalysis prints the classic offline trace analysis of the
// tapped receiver's packet stream.
func printAnalysis(recs []trace.Record, flowletGap sim.Time, gap time.Duration) {
	fmt.Println()
	a := trace.Analyze(recs)
	flows := make([]packet.FlowKey, 0, len(a.Flows))
	for f := range a.Flows {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].String() < flows[j].String() })
	for _, f := range flows {
		fs := a.Flows[f]
		fmt.Printf("flow %v:\n", fs.Flow)
		fmt.Printf("  %d packets, %d bytes, %.2f Gbps goodput\n", fs.Packets, fs.Bytes, fs.Goodput())
		fmt.Printf("  %d flowcells, %.1f%% packets reordered, %d retransmissions\n",
			fs.Flowcells, fs.ReorderFraction()*100, fs.Retransmissions)
		sizes := trace.Flowlets(recs, fs.Flow, flowletGap)
		if len(sizes) > 1 {
			fmt.Printf("  %d flowlets at a %v gap; largest %d bytes\n", len(sizes), gap, maxInt(sizes))
		}
	}
	if a.InterArrival.N() > 0 {
		fmt.Printf("\ninter-arrival (us): %s\n", a.InterArrival.Summary("us"))
	}
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
