// Command prestoctl is the thin client for a running prestod daemon:
// submit campaign specs, follow progress, cancel, and fetch artifacts.
//
//	prestoctl submit spec.json            # POST the spec, print the job JSON
//	prestoctl submit -wait spec.json      # ...and stream events until done
//	prestoctl submit -workload mice-heavy # run a workload spec (preset or file) across the system lineup
//	prestoctl list
//	prestoctl status job-000000
//	prestoctl events job-000000           # stream NDJSON events
//	prestoctl stats job-000000            # one frame of live percentiles (p50/p95/p99/p999)
//	prestoctl stats -follow job-000000    # stream frames until the job is terminal
//	prestoctl wait job-000000             # block until terminal; exit 1 unless done
//	prestoctl cancel job-000000
//	prestoctl fetch job-000000 -dir out/  # download report.json/report.csv/manifest.json
//
// spec.json is a campaign.Request — the struct cmd/experiments binds
// its flags to, field for flag:
//
//	{"experiments": "fig7", "seeds": 3, "parallelism": 4,
//	 "duration": "200ms", "warmup": "50ms"}
//	{"workload": "elephants", "scheme": "optimal,presto:cell=32KB",
//	 "shards": 2, "cell_timeout": "1m"}
//
// -workload resolves a workload-spec preset name or presto-workload/1
// file locally, validates it, and inlines its canonical form into the
// request, so the daemon needs no access to the file.
//
// Use "-" to read the spec from stdin. Exit codes: 0 success, 1 the
// job ended failed/cancelled, 2 usage or communication errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"presto/internal/campaign"
	"presto/internal/server"
	wspec "presto/internal/workload/spec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, os.Stdin))
}

// run is the testable entry point.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, stdin io.Reader) int {
	fs := flag.NewFlagSet("prestoctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:7377", "prestod base URL")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: prestoctl [-addr URL] <submit|list|status|events|stats|wait|cancel|fetch> [args]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	c := &server.Client{BaseURL: *addr}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	fail := func(err error) int {
		fmt.Fprintf(stderr, "prestoctl %s: %v\n", cmd, err)
		return 2
	}
	printJSON := func(v any) {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	// exitFor maps a terminal job state to the process exit code.
	exitFor := func(st *server.JobStatus) int {
		if st.State == server.StateDone {
			return 0
		}
		fmt.Fprintf(stderr, "prestoctl: job %s %s: %s\n", st.ID, st.State, st.Error)
		return 1
	}
	// streamEvents follows a job's event stream, printing progress
	// lines to stderr, then resolves the final status.
	streamEvents := func(id string) int {
		err := c.Events(ctx, id, 0, func(ev server.Event) error {
			switch ev.Type {
			case "progress":
				fmt.Fprintln(stderr, ev.Line)
			case "state":
				fmt.Fprintf(stderr, "[%s] %s\n", ev.Job, ev.State)
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
		st, err := c.Wait(ctx, id)
		if err != nil {
			return fail(err)
		}
		printJSON(st)
		return exitFor(st)
	}

	switch cmd {
	case "submit":
		sub := flag.NewFlagSet("submit", flag.ContinueOnError)
		sub.SetOutput(stderr)
		wait := sub.Bool("wait", false, "stream events and block until the job is terminal")
		workload := sub.String("workload", "", "workload-spec preset name or presto-workload/1 file, inlined into the request")
		if err := sub.Parse(rest); err != nil {
			return 2
		}
		if sub.NArg() > 1 || (sub.NArg() == 0 && *workload == "") {
			fmt.Fprintln(stderr, "usage: prestoctl submit [-wait] [-workload PRESET|spec.json] [<spec.json|->]")
			return 2
		}
		var req campaign.Request
		if sub.NArg() == 1 {
			var specBytes []byte
			var err error
			if sub.Arg(0) == "-" {
				specBytes, err = io.ReadAll(stdin)
			} else {
				specBytes, err = os.ReadFile(sub.Arg(0))
			}
			if err != nil {
				return fail(err)
			}
			if err := json.Unmarshal(specBytes, &req); err != nil {
				return fail(fmt.Errorf("parsing spec: %w", err))
			}
		}
		if *workload != "" {
			// Resolve and validate locally, then ship the canonical spec
			// inline so the daemon never needs the file.
			ws, err := wspec.Resolve(*workload)
			if err != nil {
				return fail(fmt.Errorf("workload: %w", err))
			}
			req.Workload = ws.Canonical()
		}
		st, err := c.Submit(ctx, req)
		if err != nil {
			return fail(err)
		}
		if *wait {
			fmt.Fprintf(stderr, "[%s] submitted\n", st.ID)
			return streamEvents(st.ID)
		}
		printJSON(st)
		return 0

	case "list":
		jobs, err := c.Jobs(ctx)
		if err != nil {
			return fail(err)
		}
		printJSON(jobs)
		return 0

	case "status":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: prestoctl status <job-id>")
			return 2
		}
		st, err := c.Job(ctx, rest[0])
		if err != nil {
			return fail(err)
		}
		printJSON(st)
		return 0

	case "events":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: prestoctl events <job-id>")
			return 2
		}
		enc := json.NewEncoder(stdout)
		err := c.Events(ctx, rest[0], 0, func(ev server.Event) error { return enc.Encode(ev) })
		if err != nil {
			return fail(err)
		}
		return 0

	case "stats":
		sub := flag.NewFlagSet("stats", flag.ContinueOnError)
		sub.SetOutput(stderr)
		follow := sub.Bool("follow", false, "stream frames until the job is terminal")
		interval := sub.Duration("interval", 0, "frame cadence when following (default: server's 500ms)")
		if err := sub.Parse(rest); err != nil {
			return 2
		}
		if sub.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: prestoctl stats [-follow] [-interval D] <job-id>")
			return 2
		}
		enc := json.NewEncoder(stdout)
		err := c.Stats(ctx, sub.Arg(0), *follow, *interval, func(f server.StatsFrame) error {
			return enc.Encode(f)
		})
		if err != nil {
			return fail(err)
		}
		return 0

	case "wait":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: prestoctl wait <job-id>")
			return 2
		}
		return streamEvents(rest[0])

	case "cancel":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: prestoctl cancel <job-id>")
			return 2
		}
		st, err := c.Cancel(ctx, rest[0])
		if err != nil {
			return fail(err)
		}
		printJSON(st)
		return 0

	case "fetch":
		sub := flag.NewFlagSet("fetch", flag.ContinueOnError)
		sub.SetOutput(stderr)
		dir := sub.String("dir", "", "write artifacts into this directory (default: print report.json to stdout)")
		if err := sub.Parse(rest); err != nil {
			return 2
		}
		if sub.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: prestoctl fetch [-dir DIR] <job-id>")
			return 2
		}
		id := sub.Arg(0)
		if *dir == "" {
			data, err := c.Artifact(ctx, id, "report.json")
			if err != nil {
				return fail(err)
			}
			if _, err := stdout.Write(data); err != nil {
				return fail(err)
			}
			return 0
		}
		names, err := c.Artifacts(ctx, id)
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fail(err)
		}
		for _, name := range names {
			data, err := c.Artifact(ctx, id, name)
			if err != nil {
				return fail(err)
			}
			if err := os.WriteFile(filepath.Join(*dir, name), data, 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", filepath.Join(*dir, name), len(data))
		}
		return 0

	default:
		fs.Usage()
		return 2
	}
}
