package campaign

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"presto/internal/telemetry"
)

// Diagnostics is the observability flag block of the batch CLI,
// experiments: telemetry exports of the simulated network (-trace,
// -events, -snapshot, -v) and pprof profiles of the simulator itself
// (-cpuprofile, -memprofile). Bind the flags, Start before the runs,
// Finish after them.
type Diagnostics struct {
	Trace, Events, Snapshot string
	Verbose                 bool
	CPUProfile, MemProfile  string

	reg *telemetry.Registry
}

// Bind registers the six flags on fs.
func (d *Diagnostics) Bind(fs *flag.FlagSet) {
	fs.StringVar(&d.Trace, "trace", "", "write a Chrome trace-event file covering every run (one process per run)")
	fs.StringVar(&d.Events, "events", "", "write the raw event log as JSON Lines")
	fs.StringVar(&d.Snapshot, "snapshot", "", "write the final telemetry snapshot JSON")
	fs.BoolVar(&d.Verbose, "v", false, "print the telemetry snapshot summary after all runs")
	fs.StringVar(&d.CPUProfile, "cpuprofile", "", "write a pprof CPU profile")
	fs.StringVar(&d.MemProfile, "memprofile", "", "write a pprof heap profile")
}

// Start builds the registry the telemetry flags ask for and starts the
// CPU profile; stop ends the profile. No telemetry flag means a nil
// registry, so runs take the nil-tracer zero-overhead path.
func (d *Diagnostics) Start() (stop func(), err error) {
	if d.Trace != "" || d.Events != "" || d.Snapshot != "" || d.Verbose {
		var tr *telemetry.Tracer
		if d.Trace != "" || d.Events != "" {
			tr = telemetry.NewTracer()
		}
		d.reg = telemetry.NewRegistry(tr)
	}
	if d.CPUProfile == "" {
		return func() {}, nil
	}
	f, err := os.Create(d.CPUProfile)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile never started; its error is the one to report
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		_ = f.Close() // auxiliary diagnostics; StopCPUProfile has already flushed
	}, nil
}

// Registry returns the registry Start built (nil when no telemetry
// flag is set).
func (d *Diagnostics) Registry() *telemetry.Registry { return d.reg }

// PerRun returns the registry to wire through every run of a campaign
// at the given parallelism. Per-run component probes and event traces
// share one registry and are deterministic only when the runs execute
// serially; at any other parallelism it returns nil — the registry
// still collects campaign-level probes — and says so on w.
func (d *Diagnostics) PerRun(parallel int, w io.Writer) *telemetry.Registry {
	if d.reg != nil && parallel != 1 {
		fmt.Fprintln(w, "note: per-run telemetry probes need -parallel 1; collecting campaign-level telemetry only")
		return nil
	}
	return d.reg
}

// Finish writes what the flags asked for once the runs are done: the
// trace and event log, snap as the snapshot file and as the -v summary
// on w (nil snap skips both), and the heap profile.
func (d *Diagnostics) Finish(snap *telemetry.Snapshot, w io.Writer) error {
	tr := d.reg.Tracer()
	if d.Trace != "" {
		if err := telemetry.WriteFile(d.Trace, tr.WriteChromeTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if d.Events != "" {
		if err := telemetry.WriteFile(d.Events, tr.WriteJSONL); err != nil {
			return fmt.Errorf("writing events: %w", err)
		}
	}
	if snap != nil {
		if d.Snapshot != "" {
			if err := telemetry.WriteFile(d.Snapshot, snap.WriteJSON); err != nil {
				return fmt.Errorf("writing snapshot: %w", err)
			}
		}
		if d.Verbose {
			fmt.Fprint(w, snap.Summary())
		}
	}
	if d.MemProfile != "" {
		runtime.GC()
		if err := telemetry.WriteFile(d.MemProfile, pprof.WriteHeapProfile); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
