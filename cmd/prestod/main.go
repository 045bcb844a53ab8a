// Command prestod serves experiment campaigns over HTTP: a
// long-running daemon that accepts the same campaign specs
// cmd/experiments runs, schedules them on a bounded job queue with
// explicit backpressure, streams per-replica progress as NDJSON/SSE,
// and serves the finished artifacts byte-identical to a CLI run.
//
//	prestod -addr 127.0.0.1:7377 -data /var/lib/prestod
//
//	curl -d '{"experiments":"fig7","seeds":3}' localhost:7377/v1/jobs
//	curl -d '{"workload":"mice-heavy","seeds":2}' localhost:7377/v1/jobs
//	curl -d '{"workload":"elephants","scheme":"optimal,presto:cell=32KB","shards":2}' localhost:7377/v1/jobs
//	curl localhost:7377/v1/jobs/job-000000/events        # NDJSON stream
//	curl localhost:7377/v1/jobs/job-000000/artifacts/report.json
//
// SIGTERM/SIGINT drains gracefully: intake stops (readyz turns 503),
// running jobs get -drain-timeout to finish, stragglers are cancelled,
// and completed jobs' artifacts are flushed before exit. The job body
// is a campaign.Request — the struct cmd/experiments binds its flags
// to — so any campaign runnable from the CLI is submitted unchanged.
// See cmd/prestoctl for the matching client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"presto"
	"presto/internal/campaign"
	"presto/internal/server"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is the testable entry point. ready, when non-nil, receives the
// bound listen address once the daemon accepts connections (tests use
// -addr 127.0.0.1:0). Exit code 0 on clean shutdown, 2 on usage or
// startup errors.
func run(args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("prestod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:7377", "listen address")
		dataDir      = fs.String("data", "", "artifact directory (default: a fresh temp dir)")
		queueDepth   = fs.Int("queue", 8, "job queue depth; a full queue rejects submissions with 429")
		workers      = fs.Int("workers", 1, "jobs executed concurrently (each runs its own replica pool)")
		ttl          = fs.Duration("ttl", time.Hour, "artifact retention after a job finishes (negative = keep forever)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "SIGTERM grace period for running jobs before they are cancelled")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request timeout for non-streaming endpoints")
		cellTimeout  = fs.Duration("cell-timeout", campaign.DefaultCellTimeout, "default wall-clock budget per replica when the job spec sets none")
		quiet        = fs.Bool("q", false, "suppress per-job log lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "prestod: %s: %v\n", what, err)
		return 2
	}

	// logf is shared with server worker goroutines via Config.Logf, so
	// writes must serialize: stderr may be any io.Writer in tests.
	var logMu sync.Mutex
	logf := func(format string, a ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(stderr, "[prestod] "+format+"\n", a...)
	}
	jobLogf := logf
	if *quiet {
		jobLogf = nil
	}
	srv, err := server.New(server.Config{
		SpecBuilder:    jobBuilder(*cellTimeout),
		DataDir:        *dataDir,
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		ArtifactTTL:    *ttl,
		RequestTimeout: *reqTimeout,
		GitDescribe:    campaign.GitDescribe(),
		Logf:           jobLogf,
	})
	if err != nil {
		return fail("init", err)
	}
	defer srv.Close() //prestolint:allow errdrop -- process is exiting; the server logs its own shutdown failures

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("listen", err)
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	logf("listening on %s (data dir %s, queue %d, workers %d)", ln.Addr(), srv.DataDir(), *queueDepth, *workers)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fail("serve", err)
	case <-ctx.Done():
	}

	logf("signal received; draining (timeout %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logf("drain: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("shutdown: %v", err)
	}
	logf("drained; exiting")
	return 0
}

// jobBuilder returns the daemon's server.Config.SpecBuilder:
// presto.Campaign — the builder cmd/experiments calls for identical
// flags, so server-side runs are byte-identical to CLI runs (the report
// carries no timing and result ordering is spec-determined, not
// scheduling-determined) — behind the one policy that is the daemon's
// own: a request without a cell timeout gets the -cell-timeout budget
// rather than none.
func jobBuilder(cellTimeout time.Duration) func(campaign.Request) (*campaign.Spec, error) {
	return func(req campaign.Request) (*campaign.Spec, error) {
		if req.CellTimeout == 0 {
			req.CellTimeout = wspec.Duration(sim.FromDuration(cellTimeout))
		}
		return presto.Campaign(req, nil)
	}
}
