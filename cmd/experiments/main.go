// Command experiments regenerates every table and figure in the
// paper's evaluation (§5, §6) through the campaign runner: the
// selected experiments expand into a grid of cells × seeds executed on
// a bounded worker pool. Absolute numbers differ from the hardware
// testbed; the comparisons (who wins, by what factor) are the
// reproduction target. See EXPERIMENTS.md for the side-by-side and
// the "Running campaigns" section for the artifact formats.
//
//	experiments -run all                      # every figure/table, GOMAXPROCS workers
//	experiments -run fig7                     # one experiment
//	experiments -run fig16 -duration 400ms
//	experiments -run all -seeds 5 -parallel 8 # 5-seed envelopes, 8 workers
//	experiments -run fig5 -gate testdata/golden/mini.json -update
//	experiments -run podtraffic -topo clos3:pods=25,hpl=20 -shards 25  # 1,000 hosts
//	experiments -workload mice-heavy          # declarative workload spec (preset name)
//	experiments -workload internal/workload/spec/presets/incast32.json
//	experiments -workload-check elephants,internal/workload/spec/presets/trace.json
//
// All progress and diagnostics stream to stderr; stdout carries only
// the result document (-format table, json, or csv), so it can be
// piped straight into a parser.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"presto"
	"presto/internal/campaign"
	wspec "presto/internal/workload/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: exit code 0 on success, 1 on
// failed cells or gate drift, 2 on usage/spec/IO errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// What to run is one campaign.Request — the flags below are its
	// fields, and a prestod job carrying the same values runs the same
	// campaign.
	req := campaign.Request{Experiments: "all"}
	req.Bind(fs)
	var diag campaign.Diagnostics
	diag.Bind(fs)
	var (
		format   = fs.String("format", "table", "stdout format: table (paper-style), json (campaign report), csv (envelope rows)")
		outDir   = fs.String("out", "", "directory for campaign artifacts (report.json, report.csv, manifest.json)")
		csvDir   = fs.String("csv", "", "directory to write raw CDF series as CSV (for replotting the figures)")
		gatePath = fs.String("gate", "", "golden envelope file to compare against (regression gate)")
		update   = fs.Bool("update", false, "with -gate: regenerate the golden file from this run instead of checking")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		wlCheck  = fs.String("workload-check", "", "validate workload specs (comma-separated preset names or spec.json paths) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, id := range presto.CampaignExperimentIDs() {
			fmt.Fprintf(stdout, "%-10s %s\n", id, presto.CampaignExperimentTitle(id))
		}
		return 0
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", what, err)
		return 2
	}
	if *wlCheck != "" {
		// Validation mode (CI): load each spec through the full loader
		// and report per-spec status; exit 2 on the first failure.
		for _, name := range strings.Split(*wlCheck, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			ws, err := wspec.Resolve(name)
			if err != nil {
				return fail("workload-check "+name, err)
			}
			fmt.Fprintf(stdout, "%s: ok (name=%s hash=%s clients=%d)\n", name, ws.Name, ws.Hash(), len(ws.Clients))
		}
		return 0
	}

	stop, err := diag.Start()
	if err != nil {
		return fail("diagnostics", err)
	}
	defer stop()

	// -workload replaces the -run selection (whose default is "all").
	if len(req.Workload) > 0 {
		req.Experiments = ""
	}
	spec, err := presto.Campaign(req, diag.PerRun(req.Parallelism, stderr))
	if err != nil {
		return fail("spec", err)
	}
	spec.Progress = stderr
	spec.Telemetry = diag.Registry()

	report, err := campaign.Run(spec)
	if err != nil {
		return fail("campaign", err)
	}

	switch *format {
	case "table":
		renderReport(stdout, report)
	case "json":
		if err := report.WriteJSON(stdout); err != nil {
			return fail("json", err)
		}
	case "csv":
		if err := report.WriteCSV(stdout); err != nil {
			return fail("csv", err)
		}
	default:
		return fail("format", fmt.Errorf("unknown -format %q (table, json, csv)", *format))
	}

	if *csvDir != "" {
		if err := writeCDFs(*csvDir, report); err != nil {
			return fail("csv dir", err)
		}
	}
	if *outDir != "" {
		if err := report.WriteArtifacts(*outDir, campaign.GitDescribe()); err != nil {
			return fail("artifacts", err)
		}
		fmt.Fprintf(stderr, "artifacts written to %s (report.json, report.csv, manifest.json)\n", *outDir)
	}
	// The -v summary goes to stderr with the other diagnostics.
	if err := diag.Finish(diag.Registry().Snapshot(0), stderr); err != nil {
		return fail("diagnostics", err)
	}

	code := 0
	if failed := report.FailedReplicas(); len(failed) > 0 {
		fmt.Fprintf(stderr, "%d replica(s) failed:\n", len(failed))
		for _, f := range failed {
			fmt.Fprintf(stderr, "  %s seed=%d: %s\n", f.Cell, f.Seed, f.Err)
		}
		code = 1
	}

	switch {
	case *gatePath != "" && *update:
		golden := campaign.GoldenFromReport(report, 0.02)
		if err := golden.Save(*gatePath); err != nil {
			return fail("gate update", err)
		}
		fmt.Fprintf(stderr, "golden envelopes written to %s (spec %s)\n", *gatePath, report.SpecHash)
	case *gatePath != "":
		golden, err := campaign.LoadGolden(*gatePath)
		if err != nil {
			return fail("gate", err)
		}
		drifts, err := golden.Check(report)
		if err != nil {
			return fail("gate", err)
		}
		if len(drifts) > 0 {
			fmt.Fprintf(stderr, "regression gate FAILED: %d metric(s) drifted beyond tolerance:\n", len(drifts))
			for _, d := range drifts {
				fmt.Fprintf(stderr, "  %s\n", d)
			}
			fmt.Fprintf(stderr, "(intentional change? regenerate with -gate %s -update)\n", *gatePath)
			code = 1
		} else {
			fmt.Fprintf(stderr, "regression gate passed: %d cells within tolerance of %s\n", len(report.Cells), *gatePath)
		}
	}
	return code
}

// writeCDFs dumps every cell's merged sample distributions as
// <dir>/<cell>_<dist>.csv ("/" and "=" sanitized for filenames).
func writeCDFs(dir string, r *campaign.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sanitize := strings.NewReplacer("/", "_", "=", "-", "+", "")
	for i := range r.Cells {
		c := &r.Cells[i]
		for _, name := range c.DistNames() {
			d := c.Dist(name)
			if d == nil || d.N() == 0 {
				continue
			}
			f, err := os.Create(filepath.Join(dir, sanitize.Replace(c.ID)+"_"+name+".csv"))
			if err != nil {
				return err
			}
			fmt.Fprintln(f, "value,fraction")
			for _, pt := range d.CDF(512) {
				fmt.Fprintf(f, "%g,%g\n", pt.Value, pt.Fraction)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
