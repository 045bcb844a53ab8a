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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"presto"
	"presto/internal/campaign"
	"presto/internal/sim"
	"presto/internal/telemetry"
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
	// -system and -scheme are two spellings of one setting.
	var system string
	fs.StringVar(&system, "system", "presto", "ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet, or a scheme registry spec name[:k=v,...] (e.g. diffflow:threshold=512KB)")
	fs.StringVar(&system, "scheme", "presto", "same as -system")
	var (
		workload   = fs.String("workload", "stride", "a workload-spec preset (stride | shuffle | random | bijection | podtraffic | ...) or a spec.json path")
		shards     = fs.Int("shards", 1, "per-pod engine shards, capped at the topology's pod count; once/unlimited workloads only, RTT probes are skipped when sharded, 1 = serial")
		pods       = fs.Int("pods", 4, "pod count for -workload podtraffic (2 aggs, 2 leaves per pod)")
		hostsLeaf  = fs.Int("hosts-per-leaf", 2, "hosts per leaf for -workload podtraffic")
		duration   = fs.Duration("duration", 200*time.Millisecond, "measurement window (simulated)")
		warmup     = fs.Duration("warmup", 50*time.Millisecond, "warmup before measurement (simulated)")
		seed       = fs.Uint64("seed", 1, "random seed (base seed with -seeds > 1)")
		seeds      = fs.Int("seeds", 1, "seed replicas; > 1 reports mean ±stddev envelopes per metric")
		parallel   = fs.Int("parallel", 0, "worker pool size for -seeds > 1; 0 = GOMAXPROCS")
		tracePath  = fs.String("trace", "", "write Chrome trace-event JSON to this file")
		eventsPath = fs.String("events", "", "write the raw event log as JSON Lines to this file")
		snapPath   = fs.String("snapshot", "", "write the telemetry snapshot JSON to this file")
		verbose    = fs.Bool("v", false, "print the telemetry snapshot summary table")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := presto.ParseSystem(system)
	if err != nil {
		return err
	}
	var cell presto.Cell
	if *workload == "podtraffic" {
		cell = presto.PodCell(sys, *pods, *hostsLeaf)
	} else {
		ws, err := wspec.Resolve(*workload)
		if err != nil {
			return fmt.Errorf("workload %q is neither a preset (%s) nor a workload spec: %v", *workload, strings.Join(wspec.PresetNames(), " | "), err)
		}
		cell = presto.SpecCell(sys, ws)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close() //prestolint:allow errdrop -- profile file is auxiliary diagnostics; StopCPUProfile already flushed before this close runs
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// Telemetry is wired only when some output wants it; otherwise the
	// run takes the nil-tracer zero-overhead path.
	var reg *telemetry.Registry
	if *tracePath != "" || *eventsPath != "" || *snapPath != "" || *verbose {
		var tr *telemetry.Tracer
		if *tracePath != "" || *eventsPath != "" {
			tr = telemetry.NewTracer()
		}
		reg = telemetry.NewRegistry(tr)
	}

	opt := presto.Options{
		Seed:      *seed,
		Duration:  sim.FromDuration(*duration),
		Warmup:    sim.FromDuration(*warmup),
		Telemetry: reg,
		Shards:    *shards,
	}

	if *seeds > 1 {
		return runReplicated(stdout, cell, opt, *seeds, *parallel)
	}

	start := time.Now()
	res, err := cell.Run(opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "system=%v workload=%v hosts=%d shards=%d seed=%d duration=%v\n",
		sys, workloadName(cell.Workload), res.Hosts, res.Shards, *seed, *duration)
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

	if err := writeTelemetry(reg, res.Telemetry, *tracePath, *eventsPath, *snapPath); err != nil {
		return err
	}
	if *verbose && res.Telemetry != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Telemetry.Summary())
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close() //prestolint:allow errdrop -- profile file is auxiliary diagnostics; WriteHeapProfile's error is already checked
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// runReplicated executes the cell as a one-cell campaign over N seeds
// and prints per-metric envelopes.
func runReplicated(stdout io.Writer, cell presto.Cell, opt presto.Options, seeds, parallel int) error {
	// Per-run telemetry registries are not safe across concurrent
	// replicas; the single-seed path keeps full telemetry support.
	opt.Telemetry = nil
	spec := &campaign.Spec{
		Name:        "prestosim",
		Cells:       []campaign.Cell{cell.Campaign(opt)},
		Seeds:       campaign.Seeds(opt.Seed, seeds),
		Parallelism: parallel,
		Progress:    os.Stderr,
	}
	report, err := presto.RunCampaign(spec)
	if err != nil {
		return err
	}
	if failed := report.FailedReplicas(); len(failed) > 0 {
		return fmt.Errorf("%d replica(s) failed, first: %s seed=%d: %s", len(failed), failed[0].Cell, failed[0].Seed, failed[0].Err)
	}
	res := &report.Cells[0]
	fmt.Fprintf(stdout, "system=%v workload=%v shards=%d seeds=%d..%d (n=%d)\n",
		cell.System, workloadName(cell.Workload), cell.ShardsUsed(opt), opt.Seed, opt.Seed+uint64(seeds)-1, seeds)
	names := make([]string, 0, len(res.Envelopes))
	for k := range res.Envelopes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		e := res.Envelopes[k]
		fmt.Fprintf(stdout, "  %-16s %s\n", k, e.String())
	}
	return nil
}

// writeTelemetry exports the tracer and snapshot to the requested
// files (shared with cmd/experiments' flag handling in spirit).
func writeTelemetry(reg *telemetry.Registry, snap *telemetry.Snapshot, tracePath, eventsPath, snapPath string) error {
	tr := reg.Tracer()
	if tracePath != "" {
		if err := telemetry.WriteFile(tracePath, tr.WriteChromeTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if eventsPath != "" {
		if err := telemetry.WriteFile(eventsPath, tr.WriteJSONL); err != nil {
			return fmt.Errorf("writing events: %w", err)
		}
	}
	if snapPath != "" && snap != nil {
		if err := telemetry.WriteFile(snapPath, snap.WriteJSON); err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
	}
	return nil
}

// workloadName renders the workload for the result header: the
// spec's name plus hash, so runs are attributable to an exact workload
// definition.
func workloadName(ws *wspec.Spec) string {
	return fmt.Sprintf("%s(spec %s)", ws.Name, ws.Hash())
}
