// Package server implements prestod, the campaign-serving daemon: an
// HTTP API that accepts declarative campaign specs as JSON, schedules
// them on a bounded job queue + worker pool with explicit backpressure
// (queue full ⇒ 429 + Retry-After), streams per-replica progress as
// NDJSON or SSE, and serves the finished campaign artifacts
// (report.json, report.csv, manifest.json) verbatim — so a campaign
// executed through the daemon is byte-identical to the same spec run
// through cmd/experiments, at any worker count.
//
// The API surface:
//
//	POST   /v1/jobs                       submit a campaign.Request → 202 JobStatus (429 when the queue is full, 503 while draining)
//	GET    /v1/jobs                       list jobs in submission order
//	GET    /v1/jobs/{id}                  one job's status
//	DELETE /v1/jobs/{id}                  cancel (pending jobs die immediately; running ones have their context cancelled)
//	GET    /v1/jobs/{id}/events[?since=N] stream events: NDJSON, or SSE with Accept: text/event-stream
//	GET    /v1/jobs/{id}/stats            live exact percentiles (one frame; ?follow=1 streams until terminal)
//	GET    /v1/jobs/{id}/artifacts        list artifact names
//	GET    /v1/jobs/{id}/artifacts/{name} serve one artifact verbatim
//	GET    /healthz                       liveness (200 while the process runs)
//	GET    /readyz                        readiness (503 once draining)
//	GET    /metrics                       Prometheus text: queue depth, jobs by state, worker utilization, request latencies
//
// Lifecycle: pending → running → done | failed | cancelled. Artifacts
// of terminal jobs are garbage-collected after Config.ArtifactTTL.
// Drain stops intake, lets running jobs finish within a deadline, then
// cancels stragglers — completed jobs' artifacts are never dropped.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"presto/internal/campaign"
	"presto/internal/telemetry"
)

// artifactNames are the files a completed campaign serves, in sorted
// order (what campaign.Report.WriteArtifacts produces).
var artifactNames = []string{"manifest.json", "report.csv", "report.json"}

// Config parameterizes a Server.
type Config struct {
	// SpecBuilder maps a submitted request onto an executable campaign
	// spec. Required. It is the seam that keeps this package free of
	// the simulator: prestod plugs in presto.Campaign (after applying
	// its -cell-timeout fallback), tests plug in synthetic campaigns.
	// The server overwrites the returned spec's Progress and Stats
	// fields to wire the job's event stream and live counters;
	// everything else (cells, seeds, parallelism, cell timeout) is the
	// builder's to fill.
	SpecBuilder func(req campaign.Request) (*campaign.Spec, error)

	// DataDir is the artifact root (one subdirectory per job). Empty
	// means a fresh temporary directory.
	DataDir string

	// QueueDepth bounds the number of jobs waiting to run (running
	// jobs excluded); a full queue rejects submissions with 429.
	// Default 8.
	QueueDepth int

	// Workers is the number of jobs executed concurrently (each job
	// runs its own replica pool sized by its spec). Default 1.
	Workers int

	// ArtifactTTL is how long a terminal job's record and artifacts
	// are retained. 0 means the 1 h default; negative disables GC.
	ArtifactTTL time.Duration

	// RequestTimeout bounds non-streaming API requests. 0 means the
	// 30 s default.
	RequestTimeout time.Duration

	// RetryAfter is the hint returned with 429 responses. 0 means 2 s.
	RetryAfter time.Duration

	// GitDescribe stamps job manifests (may be empty).
	GitDescribe string

	// Logf, when non-nil, receives one line per job state transition.
	Logf func(format string, args ...any)
}

// Server is the campaign-serving daemon core. It implements
// http.Handler; run it under any http.Server.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	mux   *http.ServeMux
	stats *requestStats

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order
	queue    chan *job
	nextID   int
	draining bool
	busy     int // workers currently executing a job

	workers  sync.WaitGroup
	removals sync.WaitGroup // deferred artifact removals awaiting in-flight fetches
	gcStop   chan struct{}
	gcDone   chan struct{}
}

// New builds a Server and starts its worker pool (and artifact
// janitor, unless ArtifactTTL < 0).
func New(cfg Config) (*Server, error) {
	if cfg.SpecBuilder == nil {
		return nil, errors.New("server: Config.SpecBuilder is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ArtifactTTL == 0 {
		cfg.ArtifactTTL = time.Hour
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "prestod-*")
		if err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
		cfg.DataDir = dir
	} else if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	s := &Server{
		cfg:    cfg,
		stats:  newRequestStats(),
		jobs:   make(map[string]*job),
		queue:  make(chan *job, cfg.QueueDepth),
		gcStop: make(chan struct{}),
		gcDone: make(chan struct{}),
	}
	s.reg = telemetry.NewRegistry(nil)
	s.reg.Register("server", s.probe)
	s.reg.Register("http", s.stats.probe)
	s.reg.Register("stats", s.statsProbe)
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	if cfg.ArtifactTTL > 0 {
		go s.janitor(s.gcStop)
	} else {
		close(s.gcDone)
	}
	return s, nil
}

// DataDir returns the artifact root (useful when it was auto-created).
func (s *Server) DataDir() string { return s.cfg.DataDir }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// routes registers the API. Streaming endpoints skip the per-request
// timeout; everything else is bounded by Config.RequestTimeout.
func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", true, s.handleHealthz)
	s.handle("GET /readyz", "readyz", true, s.handleReadyz)
	s.handle("GET /metrics", "metrics", true, s.handleMetrics)
	s.handle("POST /v1/jobs", "submit", true, s.handleSubmit)
	s.handle("GET /v1/jobs", "list", true, s.handleList)
	s.handle("GET /v1/jobs/{id}", "status", true, s.handleStatus)
	s.handle("DELETE /v1/jobs/{id}", "cancel", true, s.handleCancel)
	s.handle("GET /v1/jobs/{id}/events", "events", false, s.handleEvents)
	s.handle("GET /v1/jobs/{id}/stats", "stats", false, s.handleStats)
	s.handle("GET /v1/jobs/{id}/artifacts", "artifact-list", true, s.handleArtifactList)
	s.handle("GET /v1/jobs/{id}/artifacts/{name}", "artifact", true, s.handleArtifact)
}

// handle wraps a handler with latency instrumentation and (optionally)
// the per-request timeout.
func (s *Server) handle(pattern, route string, withTimeout bool, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if withTimeout && s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.stats.observe(route, rec.code, time.Since(start))
	})
}

// statusRecorder captures the response code for instrumentation while
// passing Flush through for streaming handlers.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON responds with v as JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError responds with the API's JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "queued": queued})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot(0)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = writePrometheus(w, snap)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req campaign.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	spec, err := s.cfg.SpecBuilder(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	j := newJob(id, req, spec, filepath.Join(s.cfg.DataDir, id))
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.order = append(s.order, id)
	default:
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "job queue full (depth %d); retry later", cap(s.queue))
		return
	}
	s.mu.Unlock()
	sel := fmt.Sprintf("experiments=%q", req.Experiments)
	if len(req.Workload) > 0 {
		sel = "workload spec"
	}
	s.cfg.Logf("job %s submitted: %s seeds=%d parallelism=%d", id, sel, req.Seeds, req.Parallelism)
	writeJSON(w, http.StatusAccepted, j.status(s.cfg.ArtifactTTL))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(s.cfg.ArtifactTTL)
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id}, writing 404 when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status(s.cfg.ArtifactTTL))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.requestCancel("cancelled by client")
	s.cfg.Logf("job %s: cancel requested", j.id)
	writeJSON(w, http.StatusOK, j.status(s.cfg.ArtifactTTL))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	cursor := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad since=%q", q)
			return
		}
		cursor = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, done := j.events.wait(r.Context(), cursor)
		for _, ev := range evs {
			if sse {
				data, err := json.Marshal(ev)
				if err != nil {
					return
				}
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
					return
				}
			} else if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		cursor += len(evs)
		if done || r.Context().Err() != nil {
			return
		}
	}
}

func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := j.status(s.cfg.ArtifactTTL)
	writeJSON(w, http.StatusOK, map[string]any{"job": j.id, "state": st.State, "artifacts": st.Artifacts})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	name := r.PathValue("name")
	ok := false
	for _, n := range artifactNames {
		if n == name {
			ok = true
			break
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown artifact %q (have: %s)", name, strings.Join(artifactNames, ", "))
		return
	}
	if st := j.stateNow(); st != StateDone {
		writeError(w, http.StatusConflict, "job %s is %s; artifacts exist only for done jobs", j.id, st)
		return
	}
	// Pin the artifact directory for the whole response: the janitor
	// defers removal until the last in-flight fetch releases, so a slow
	// reader streams the complete file. Once the job is retired the
	// fetch is refused with 410 rather than racing the delete.
	if !j.acquireArtifacts() {
		writeError(w, http.StatusGone, "job %s: artifacts expired and were removed", j.id)
		return
	}
	defer j.releaseArtifacts()
	f, err := os.Open(filepath.Join(j.dir, name))
	if err != nil {
		writeError(w, http.StatusNotFound, "artifact %s: %v", name, err)
		return
	}
	defer f.Close() //prestolint:allow errdrop -- artifact opened read-only for serving; close cannot lose data
	if strings.HasSuffix(name, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// worker executes queued jobs until the queue closes (drain).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through its lifecycle: run the campaign with a
// cancellable context, write artifacts on success, and map a cancelled
// context to the cancelled (not failed) state.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if !j.begin(cancel) {
		return // cancelled while queued
	}
	s.mu.Lock()
	s.busy++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}()
	j.events.publish(Event{Job: j.id, Type: "state", State: StateRunning})
	s.cfg.Logf("job %s: running (%d cells × %d replicas)", j.id, j.cells, j.replicas)

	rep, err := campaign.RunContext(ctx, j.spec)
	switch {
	case err == nil:
		if werr := rep.WriteArtifacts(j.dir, s.cfg.GitDescribe); werr != nil {
			j.finish(StateFailed, fmt.Sprintf("writing artifacts: %v", werr), nil)
		} else {
			j.finish(StateDone, "", append([]string(nil), artifactNames...))
		}
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, err.Error(), nil)
	default:
		j.finish(StateFailed, err.Error(), nil)
	}
	s.cfg.Logf("job %s: %s", j.id, j.stateNow())
}

// Drain stops intake (readyz and POST turn 503), cancels still-queued
// jobs, and waits for running ones. When ctx expires first, running
// jobs have their contexts cancelled — the campaign pool stops within
// one replica — and the pool is awaited regardless, so artifacts
// already written are never dropped. Idempotent: later calls just wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		close(s.queue)
	}
	var pending []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.stateNow() == StatePending {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	// cancelIfPending re-checks state under the job lock: a job a
	// worker dequeued since the snapshot above is now running, and
	// running jobs get the full drain deadline rather than an
	// immediate context cancellation.
	for _, j := range pending {
		j.cancelIfPending("server draining")
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	var running []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.stateNow() == StateRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	for _, j := range running {
		j.requestCancel("drain deadline exceeded")
	}
	<-done
	if len(running) > 0 {
		return fmt.Errorf("drain deadline exceeded; cancelled %d running job(s)", len(running))
	}
	return nil
}

// Close force-drains (cancelling running jobs) and stops the janitor.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	s.mu.Lock()
	stopped := s.gcStop == nil
	if !stopped {
		close(s.gcStop)
		s.gcStop = nil
	}
	s.mu.Unlock()
	if !stopped {
		<-s.gcDone
	}
	// Deferred removals are bounded by their readers' connections, which
	// the HTTP server tears down before Close is reached in practice.
	s.removals.Wait()
	return err
}

// janitor garbage-collects expired jobs' records and artifact
// directories on a cadence derived from the TTL until stop closes.
func (s *Server) janitor(stop <-chan struct{}) {
	defer close(s.gcDone)
	interval := s.cfg.ArtifactTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.gc(time.Now())
		}
	}
}

// gc removes jobs whose artifacts outlived the TTL; returns how many.
func (s *Server) gc(now time.Time) int {
	s.mu.Lock()
	var expired []*job
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j.expired(now, s.cfg.ArtifactTTL) {
			expired = append(expired, j)
			delete(s.jobs, id)
		} else {
			keep = append(keep, id)
		}
	}
	s.order = keep
	s.mu.Unlock()
	for _, j := range expired {
		// retire refuses new fetches; removal waits for in-flight ones.
		// The common no-readers case removes synchronously so the TTL is
		// honored promptly; with a fetch mid-stream, a goroutine removes
		// the directory the moment the last reader finishes.
		if idle := j.retire(); idle != nil {
			s.removals.Add(1)
			go func(j *job, idle <-chan struct{}) {
				defer s.removals.Done()
				<-idle
				_ = os.RemoveAll(j.dir)
				s.cfg.Logf("job %s: expired; artifacts removed after in-flight fetch drained", j.id)
			}(j, idle)
			continue
		}
		_ = os.RemoveAll(j.dir)
		s.cfg.Logf("job %s: expired; artifacts removed", j.id)
	}
	return len(expired)
}

// probe reports the server's execution state ("server" component of
// /metrics): queue occupancy, jobs by state, worker utilization, and
// replica totals across all retained jobs.
func (s *Server) probe() map[string]any {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	m := map[string]any{
		"queue_depth":  len(s.queue),
		"queue_cap":    cap(s.queue),
		"workers":      s.cfg.Workers,
		"workers_busy": s.busy,
		"draining":     s.draining,
		"jobs_total":   len(s.order),
	}
	s.mu.Unlock()

	byState := map[State]int{}
	var done, failed int
	for _, j := range jobs {
		byState[j.stateNow()]++
		d, f := j.stats.Replicas()
		done += d
		failed += f
	}
	for _, st := range []State{StatePending, StateRunning, StateDone, StateFailed, StateCancelled} {
		m["jobs_"+string(st)] = byState[st]
	}
	m["replicas_done_total"] = done
	m["replicas_failed_total"] = failed
	return m
}
