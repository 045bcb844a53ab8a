// Command capture runs a workload and records every flow start into a
// replayable presto-workload/1 spec: one trace client whose inline
// flow starts the generator feeds back verbatim, so the spec's hash
// covers the recorded traffic. With -out it also captures every packet
// arriving at one receiver (host 2) into a classic pcap file, openable
// in tcpdump/Wireshark, with flowcell IDs in TCP option 253.
//
//	capture -flows r.json                             # record mice-heavy flow starts
//	experiments -workload r.json                      # replay them
//	capture -workload incast32 -flows r.json
//	capture -system flowlet100 -out /tmp/presto.pcap
//
// Capture runs the default warmup plus -duration, as every cell run
// does, and the replay spec, named <workload>-replay, keeps each flow
// start at the time it was recorded, so a replay under the same
// windows measures the flows the capture measured. The paper's
// reordering and flowlet numbers come from the simulator itself
// (experiments -run fig1,fig5), not from the pcap.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"presto"
	"presto/internal/campaign"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
	wspec "presto/internal/workload/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: exit code 0 on success, 1 on run or
// IO errors, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// What to capture is a campaign.Request like every other front
	// door's: one system, one workload, a seed and a window.
	req := campaign.Request{
		Scheme:   "presto",
		Workload: json.RawMessage(`"mice-heavy"`),
		Duration: wspec.Duration(50 * sim.Millisecond),
	}
	req.Bind(fs, "seed", "duration")
	fs.StringVar(&req.Scheme, "system", req.Scheme, "ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet, or a scheme registry spec")
	fs.Var(req.WorkloadFlag(), "workload", "workload-spec preset name or spec.json path to drive the capture")
	var (
		flows = fs.String("flows", "capture.replay.json", "replay spec output: the recorded flow starts as a workload spec (empty = skip)")
		out   = fs.String("out", "", "pcap output path (empty = skip packet capture)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}

	ws, err := wspec.ResolveJSON(req.Workload)
	if err != nil {
		return fail(1, fmt.Errorf("workload: %w", err))
	}
	// The cluster is the one a workload cell would run, on a 2-spine,
	// 2-leaf, 4-host fabric.
	cell, err := presto.SpecCell(req.Scheme, ws)
	if err != nil {
		return fail(2, err)
	}
	cell.Topo = "clos:hpl=2,leaves=2,spines=2"
	opt := presto.RunOptions(req)
	c, g, err := cell.Start(opt)
	if err != nil {
		return fail(1, err)
	}

	// Packet tap at host 2 feeding the pcap writer, only when -out is
	// set. The writer serializes the packet before the tap returns, so
	// it keeps no reference to it.
	var pcapFile *os.File
	var pcap *pcapWriter
	var tapErr error
	if *out != "" {
		if pcapFile, err = os.Create(*out); err != nil {
			return fail(1, err)
		}
		pcap = newPcapWriter(pcapFile)
		c.TapHost(2, func(at sim.Time, p *packet.Packet) {
			if tapErr == nil {
				tapErr = pcap.WritePacket(at, p)
			}
		})
	}

	var starts []wspec.FlowStart
	if *flows != "" {
		g.OnFlowStart = func(f wspec.FlowStart) { starts = append(starts, f) }
	}
	g.Start(opt.Warmup + opt.Duration)
	c.Run(opt.Warmup + opt.Duration)
	if tapErr != nil {
		return fail(1, fmt.Errorf("pcap write: %w", tapErr))
	}

	fmt.Fprintf(stdout, "workload %s (spec %s) on %s: %v simulated after %v warmup\n", ws.Name, ws.Hash(), req.Scheme, &req.Duration, &req.Warmup)
	for _, cr := range g.Results(c.Now()) {
		fmt.Fprintf(stdout, "  client %-13s started=%d finished=%d bytes=%d\n", cr.ID+":", cr.Started, cr.Finished, cr.BytesMoved)
	}

	if *flows != "" {
		replay, err := writeReplay(*flows, ws.Name, starts)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "wrote %d flow starts to %s (spec %s; replay with experiments -workload %s)\n", len(starts), *flows, replay.Hash(), *flows)
	}
	if pcap != nil {
		if err := pcapFile.Close(); err != nil {
			return fail(1, fmt.Errorf("closing %s: %w", *out, err))
		}
		fmt.Fprintf(stdout, "captured %d frames to %s\n", pcap.Count(), *out)
	}
	return 0
}

// writeReplay writes the recorded starts, at their recorded times, as
// the canonical JSON of a <name>-replay spec with one trace client.
func writeReplay(path, name string, starts []wspec.FlowStart) (*wspec.Spec, error) {
	if len(starts) == 0 {
		return nil, fmt.Errorf("no flow starts recorded; nothing to write to %s", path)
	}
	replay := &wspec.Spec{
		Version: wspec.Version,
		Name:    name + "-replay",
		Clients: []wspec.Client{{ID: "replay", Trace: &wspec.TraceSource{Inline: starts}}},
	}
	return replay, telemetry.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(replay.Canonical())
		return err
	})
}
