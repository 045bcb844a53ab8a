// Command prestosim runs one load-balancing system against one
// workload on the emulated testbed and prints the measured metrics —
// a quick way to poke at the reproduction:
//
//	prestosim -system presto -workload stride -duration 200ms
//	prestosim -system ecmp -workload bijection -seed 7
//	prestosim -system presto -workload stride -seeds 5   # mean ±stddev over 5 seeds
//	prestosim -system presto -workload mice-heavy        # declarative preset
//	prestosim -system ecmp -workload examples/specs/incast32.json
//
// -workload accepts a named workload-spec preset (the paper's stride,
// shuffle, random, bijection, trace-mix and north-south; elephants,
// mice-heavy, incast32, trace; podtraffic on the -pods pod topology)
// or a path to a presto-workload/1 spec JSON file.
//
// With -seeds N > 1 the run is replicated over seeds seed..seed+N-1 on
// the campaign worker pool (-parallel workers) and every metric is
// reported as a mean/stddev/min–max envelope.
//
// Observability flags: -trace writes a Chrome trace-event file (open
// in Perfetto / chrome://tracing), -events a JSON Lines event log,
// -snapshot a per-component counter dump, and -v prints the snapshot
// summary table. -cpuprofile/-memprofile capture pprof profiles of the
// simulator itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"presto"
	"presto/internal/campaign"
	wspec "presto/internal/workload/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("prestosim", flag.ContinueOnError)
	// One system on one workload is a campaign.Request with a single
	// scheme: the replication and window flags are the shared ones, and
	// -system / -scheme are two spellings of its Scheme field.
	req := campaign.Request{Scheme: "presto", Workload: json.RawMessage(`"stride"`)}
	req.Bind(fs, "shards", "duration", "warmup", "seed", "seeds", "parallel")
	fs.StringVar(&req.Scheme, "system", req.Scheme, "ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet, or a scheme registry spec name[:k=v,...] (e.g. diffflow:threshold=512KB)")
	fs.StringVar(&req.Scheme, "scheme", req.Scheme, "same as -system")
	fs.Var(req.WorkloadFlag(), "workload", "a workload-spec preset (stride | shuffle | random | bijection | podtraffic | ...) or a spec.json path")
	var (
		pods      = fs.Int("pods", 4, "pod count for -workload podtraffic (2 aggs, 2 leaves per pod)")
		hostsLeaf = fs.Int("hosts-per-leaf", 2, "hosts per leaf for -workload podtraffic")
		diag      campaign.Diagnostics
	)
	diag.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		cell presto.Cell
		err  error
	)
	if string(req.Workload) == `"podtraffic"` {
		cell, err = presto.PodCell(req.Scheme, *pods, *hostsLeaf)
	} else {
		ws, werr := wspec.ResolveJSON(req.Workload)
		if werr != nil {
			return fmt.Errorf("workload %s is neither a preset (%s) nor a workload spec: %v", req.Workload, strings.Join(wspec.PresetNames(), " | "), werr)
		}
		cell, err = presto.SpecCell(req.Scheme, ws)
	}
	if err != nil {
		return err
	}
	// The header names the system as the cell ID does ("Presto",
	// "diffflow:threshold=512KB") and the spec with its hash, so runs
	// are attributable to an exact workload definition.
	_, sys, _ := strings.Cut(cell.ID, "/sys=")
	workload := fmt.Sprintf("%s(spec %s)", cell.Workload.Name, cell.Workload.Hash())

	stop, err := diag.Start()
	if err != nil {
		return err
	}
	defer stop()

	req = req.WithDefaults()
	if req.Seeds > 1 {
		// A one-cell campaign over the request's seeds, reported as
		// per-metric envelopes.
		spec, err := presto.Campaign(req, diag.PerRun(req.Parallelism, os.Stderr), cell)
		if err != nil {
			return err
		}
		spec.Progress = os.Stderr
		spec.Telemetry = diag.Registry()
		report, err := campaign.Run(spec)
		if err != nil {
			return err
		}
		if failed := report.FailedReplicas(); len(failed) > 0 {
			return fmt.Errorf("%d replica(s) failed, first: %s seed=%d: %s", len(failed), failed[0].Cell, failed[0].Seed, failed[0].Err)
		}
		fmt.Fprintf(stdout, "system=%v workload=%v shards=%d seeds=%d..%d (n=%d)\n",
			sys, workload, cell.ShardsUsed(presto.RunOptions(req)), req.Seed, req.Seed+uint64(req.Seeds)-1, req.Seeds)
		envelopes := report.Cells[0].Envelopes
		names := make([]string, 0, len(envelopes))
		for k := range envelopes {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "  %-16s %s\n", k, envelopes[k].String())
		}
		return diag.Finish(diag.Registry().Snapshot(0), os.Stderr)
	}

	// Telemetry is wired only when some output wants it; otherwise the
	// run takes the nil-tracer zero-overhead path.
	opt := presto.RunOptions(req)
	opt.Telemetry = diag.Registry()
	start := time.Now()
	res, err := cell.Run(opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "system=%v workload=%v hosts=%d shards=%d seed=%d duration=%v\n",
		sys, workload, res.Hosts, res.Shards, req.Seed, &req.Duration)
	fmt.Fprintf(stdout, "  elephant throughput: %.2f Gbps/flow (fairness %.3f)\n", res.MeanTput, res.Fairness)
	fmt.Fprintf(stdout, "  loss rate:           %.4f%%\n", res.LossRate*100)
	if res.RTT != nil && res.RTT.N() > 0 {
		fmt.Fprintf(stdout, "  RTT (ms):            p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f (n=%d)\n",
			res.RTT.Percentile(50), res.RTT.Percentile(90), res.RTT.Percentile(99), res.RTT.Percentile(99.9), res.RTT.N())
	}
	if res.FCT != nil && res.FCT.N() > 0 {
		fmt.Fprintf(stdout, "  mice FCT (ms):       p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f (n=%d, timeouts=%d)\n",
			res.FCT.Percentile(50), res.FCT.Percentile(90), res.FCT.Percentile(99), res.FCT.Percentile(99.9), res.FCT.N(), res.MiceTimeouts)
	}
	for _, cr := range res.Clients {
		fmt.Fprintf(stdout, "  client %-13s started=%d finished=%d timeouts=%d bytes=%d",
			cr.ID+":", cr.Started, cr.Finished, cr.Timeouts, cr.BytesMoved)
		if cr.FCT != nil && cr.FCT.N() > 0 {
			fmt.Fprintf(stdout, " fct_ms_p50=%.3f fct_ms_p99=%.3f", cr.FCT.Percentile(50), cr.FCT.Percentile(99))
		}
		if cr.Tput > 0 {
			fmt.Fprintf(stdout, " tput_gbps=%.2f", cr.Tput)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "  delivered packets:   %d\n", res.Delivered)
	fmt.Fprintf(stdout, "  engine events:       %d\n", res.Events)
	fmt.Fprintf(stdout, "  wall time:           %v\n", elapsed.Round(time.Millisecond))

	if diag.Verbose {
		fmt.Fprintln(stdout)
	}
	// The run ended at its window's close, when its probes were frozen.
	return diag.Finish(diag.Registry().Snapshot(opt.Warmup+opt.Duration), stdout)
}
