package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"presto/internal/campaign"
	"presto/internal/metrics"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// synthSpec is the shared two-cell test campaign: metrics are a pure
// function of (cell, seed), so any two executions of the same request
// produce byte-identical artifacts regardless of worker scheduling.
func synthSpec(req campaign.Request) (*campaign.Spec, error) {
	if req.Experiments != "synth" {
		return nil, fmt.Errorf("unknown experiments %q (this server only runs: synth)", req.Experiments)
	}
	cell := func(id string, base float64) campaign.Cell {
		return campaign.Cell{
			Experiment: "synth",
			ID:         "synth/" + id,
			Run: func(seed uint64) (campaign.Result, error) {
				d := &metrics.Dist{}
				for k := 0; k < 4; k++ {
					d.Add(base + float64(seed) + float64(k))
				}
				return campaign.Result{
					Metrics: campaign.Values{"v": base * float64(seed), "const": 7},
					Dists:   map[string]*metrics.Dist{"lat": d},
				}, nil
			},
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	nseeds := req.Seeds
	if nseeds <= 0 {
		nseeds = 1
	}
	return &campaign.Spec{
		Name:        "synth",
		Cells:       []campaign.Cell{cell("a", 3), cell("b", 11)},
		Seeds:       campaign.Seeds(seed, nseeds),
		Parallelism: req.Parallelism,
		CellTimeout: sim.Time(req.CellTimeout).AsDuration(),
	}, nil
}

// blockingBuilder returns a builder whose single cell blocks on
// release, plus the release channel — for backpressure/cancel/drain
// tests that need a job to stay running until told otherwise.
func blockingBuilder(release chan struct{}) func(campaign.Request) (*campaign.Spec, error) {
	return func(req campaign.Request) (*campaign.Spec, error) {
		return &campaign.Spec{
			Name: "block",
			Cells: []campaign.Cell{{
				Experiment: "block",
				ID:         "block/0",
				Run: func(seed uint64) (campaign.Result, error) {
					<-release
					return campaign.Result{Metrics: campaign.Values{"v": 1}}, nil
				},
			}},
			Parallelism: 1,
			CellTimeout: sim.Time(req.CellTimeout).AsDuration(),
		}, nil
	}
}

// newTestServer stands up a Server behind httptest and returns it with
// a wired client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		_ = s.Close()
		ts.Close()
	})
	return s, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

func ctx(t *testing.T) context.Context {
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

// TestSubmitStreamFetchByteIdentical is the end-to-end determinism
// test: submit a two-cell campaign, stream its events, fetch
// report.json/report.csv, and assert they are byte-identical to a
// direct campaign.Run of the same spec at a different parallelism.
func TestSubmitStreamFetchByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec, Workers: 2})
	req := campaign.Request{Experiments: "synth", Seeds: 3, Parallelism: 4}

	st, err := c.Submit(ctx(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("submit state = %q", st.State)
	}
	if st.Cells != 2 || st.Replicas != 6 {
		t.Fatalf("submit status cells=%d replicas=%d, want 2/6", st.Cells, st.Replicas)
	}

	// Stream the full event history: lifecycle states plus one
	// progress line per replica and the summary line.
	var states []State
	var progress int
	err = c.Events(ctx(t), st.ID, 0, func(ev Event) error {
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "progress":
			progress++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	wantStates := []State{StatePending, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(wantStates) {
		t.Errorf("state events = %v, want %v", states, wantStates)
	}
	if progress != 6+1 { // one per replica + summary
		t.Errorf("progress events = %d, want 7", progress)
	}

	final, err := c.Wait(ctx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.ReplicasDone != 6 || final.ReplicasFailed != 0 {
		t.Fatalf("final status = %+v, want done 6/0", final)
	}

	// The served artifacts must be the exact bytes a direct run of the
	// same spec writes — at any parallelism.
	spec, err := synthSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallelism = 1
	rep, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := rep.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := c.Artifact(ctx(t), st.ID, "report.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON.Bytes()) {
		t.Errorf("report.json differs between server run and direct run:\nserver: %s\ndirect: %s", gotJSON, wantJSON.Bytes())
	}
	gotCSV, err := c.Artifact(ctx(t), st.ID, "report.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Errorf("report.csv differs between server run and direct run")
	}

	names, err := c.Artifacts(ctx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"manifest.json", "report.csv", "report.json"}) {
		t.Errorf("artifact names = %v", names)
	}
}

// TestEventsSSE checks the Accept: text/event-stream rendering of the
// same stream.
func TestEventsSSE(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequestWithContext(ctx(t), http.MethodGet, c.BaseURL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "event: state\n") || !strings.Contains(body.String(), "event: progress\n") {
		t.Errorf("SSE body missing event framing:\n%s", body.String())
	}
}

// TestBackpressure asserts the queue-full contract: with one worker
// occupied and a depth-1 queue, the third submission gets 429 with a
// Retry-After hint, and previously accepted jobs still complete.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	_, c := newTestServer(t, Config{
		SpecBuilder: blockingBuilder(release),
		Workers:     1,
		QueueDepth:  1,
		RetryAfter:  3 * time.Second,
	})

	a, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked A up, so B occupies the queue slot.
	waitState(t, c, a.ID, StateRunning)
	b, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit err = %v, want 429 APIError", err)
	}
	if apiErr.RetryAfter != 3*time.Second {
		t.Errorf("Retry-After = %v, want 3s", apiErr.RetryAfter)
	}

	close(release)
	for _, id := range []string{a.ID, b.ID} {
		st, err := c.Wait(ctx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s = %s, want done", id, st.State)
		}
	}
}

// TestCancelRunningJob is the DELETE contract: cancelling a running
// job returns well within the replica cell-timeout, the job lands in
// cancelled (not failed), and no goroutines leak once the abandoned
// replica drains.
func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	_, c := newTestServer(t, Config{SpecBuilder: blockingBuilder(release)})

	// Warm up the transport so the goroutine baseline includes idle
	// keep-alive connections.
	warm, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, warm.ID, StateRunning)
	before := runtime.NumGoroutine()

	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "block", CellTimeout: wspec.Duration(30 * sim.Second)})
	if err != nil {
		t.Fatal(err)
	}

	deleteStart := time.Now()
	if _, err := c.Cancel(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(deleteStart); d > 5*time.Second {
		t.Errorf("DELETE took %v, want well under the 30s cell-timeout", d)
	}
	final, err := c.Wait(ctx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled job state = %s (err %q), want cancelled", final.State, final.Error)
	}
	if final.Error == "" || !strings.Contains(final.Error, "cancel") {
		t.Errorf("cancelled job error = %q, want a cancellation reason", final.Error)
	}

	// Release the blocked replicas (the warm-up job finishes, the
	// abandoned replica of the cancelled job drains) and require the
	// goroutine count to return to its pre-submission baseline.
	close(release)
	if _, err := c.Wait(ctx(t), warm.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked after cancel: before=%d after=%d", before, n)
	}
}

// TestCancelPendingJob: a queued job dies immediately and never runs.
func TestCancelPendingJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c := newTestServer(t, Config{SpecBuilder: blockingBuilder(release), Workers: 1, QueueDepth: 2})

	a, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, a.ID, StateRunning)
	b, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx(t), b.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx(t), b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled || final.Started != nil {
		t.Errorf("pending cancel: state=%s started=%v, want cancelled/never-started", final.State, final.Started)
	}
}

// TestDrain is the SIGTERM semantics test: draining flips readyz and
// submissions to 503, cancels queued jobs, lets the running one finish,
// and never drops its artifacts.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	s, c := newTestServer(t, Config{SpecBuilder: blockingBuilder(release), Workers: 1, QueueDepth: 2})

	run, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, run.ID, StateRunning)
	queued, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}

	drainErr := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drainErr <- s.Drain(dctx)
	}()

	// Draining: readyz 503, new submissions 503, queued job cancelled.
	waitReadyz(t, c, http.StatusServiceUnavailable)
	_, err = c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain err = %v, want 503", err)
	}
	qs, err := c.Wait(ctx(t), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qs.State != StateCancelled {
		t.Errorf("queued job during drain = %s, want cancelled", qs.State)
	}
	// healthz stays 200 while draining (liveness vs readiness).
	resp, err := c.HTTPClient.Get(c.BaseURL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %v %v, want 200", resp, err)
	}
	if resp != nil {
		resp.Body.Close()
	}

	// Let the running job finish: drain completes cleanly and the
	// finished job's artifacts survive.
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	rs, err := c.Wait(ctx(t), run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.State != StateDone {
		t.Fatalf("running job after drain = %s, want done", rs.State)
	}
	if _, err := c.Artifact(ctx(t), run.ID, "report.json"); err != nil {
		t.Errorf("artifacts dropped by drain: %v", err)
	}
}

// TestDrainDeadlineCancelsStragglers: when the drain deadline passes,
// running jobs are cancelled rather than awaited forever.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, c := newTestServer(t, Config{SpecBuilder: blockingBuilder(release)})
	run, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, run.ID, StateRunning)

	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); err == nil {
		t.Fatal("forced drain returned nil error")
	}
	st, err := c.Wait(ctx(t), run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Errorf("straggler after forced drain = %s, want cancelled", st.State)
	}
}

// TestHealthAndMetricsWhileRunning: /healthz, /readyz and /metrics all
// answer correctly while a job is in flight, and the Prometheus text
// carries the server probe set.
func TestHealthAndMetricsWhileRunning(t *testing.T) {
	release := make(chan struct{})
	_, c := newTestServer(t, Config{SpecBuilder: blockingBuilder(release)})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := c.HTTPClient.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d while job running, want 200", path, resp.StatusCode)
		}
	}
	resp, err := c.HTTPClient.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		"presto_server_jobs_running 1",
		"presto_server_workers_busy 1",
		"presto_server_queue_depth 0",
		"presto_server_draining 0",
		"presto_http_submit_count",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body.String())
		}
	}
	close(release)
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactGC: a terminal job's record and directory disappear once
// its TTL elapses.
func TestArtifactGC(t *testing.T) {
	s, c := newTestServer(t, Config{SpecBuilder: synthSpec, ArtifactTTL: time.Hour})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	dir := s.jobs[st.ID].dir
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("artifact dir missing after done: %v", err)
	}
	if n := s.gc(time.Now()); n != 0 {
		t.Fatalf("gc before TTL removed %d jobs", n)
	}
	if n := s.gc(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("gc after TTL removed %d jobs, want 1", n)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("artifact dir survived GC: %v", err)
	}
	if _, err := c.Job(ctx(t), st.ID); err == nil {
		t.Error("expired job still resolvable")
	}
}

// TestSlowArtifactReaderSurvivesGC pins the janitor/fetch race: a GET
// mid-download holds the job's fetch refcount, so when the TTL fires
// the janitor retires the job (refusing new fetches) but defers the
// directory removal until the reader has streamed the complete file.
func TestSlowArtifactReaderSurvivesGC(t *testing.T) {
	s, c := newTestServer(t, Config{SpecBuilder: synthSpec, ArtifactTTL: time.Hour})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	j := s.jobs[st.ID]

	// Inflate report.csv past the loopback socket buffers so the
	// handler is genuinely mid-io.Copy while the janitor fires below.
	path := filepath.Join(j.dir, "report.csv")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte("x"), 1<<20)
	for i := 0; i < 16; i++ {
		if _, err := f.Write(pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.HTTPClient.Get(c.BaseURL + "/v1/jobs/" + st.ID + "/artifacts/report.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact GET status %d, want 200", resp.StatusCode)
	}
	head := make([]byte, 1024)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}

	// TTL elapses with the reader stalled after 1 KB: the job record
	// must be collected, but the directory must survive the sweep.
	if n := s.gc(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("gc removed %d jobs, want 1", n)
	}
	if j.acquireArtifacts() {
		t.Fatal("acquireArtifacts succeeded on a retired job; want 410 path")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact removed with a reader mid-stream: %v", err)
	}

	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading artifact tail after gc: %v", err)
	}
	got := append(head, rest...)
	if !bytes.Equal(got, want) {
		t.Fatalf("slow reader got %d bytes, want %d (content mismatch)", len(got), len(want))
	}

	// The last reader is out: the deferred removal must now land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(j.dir); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("artifact dir survived after the in-flight fetch drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec})
	// Unknown experiment selection → 400 from the builder.
	_, err := c.Submit(ctx(t), campaign.Request{Experiments: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec err = %v, want 400", err)
	}
	// Unknown job → 404 everywhere.
	if _, err := c.Job(ctx(t), "job-999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job err = %v, want 404", err)
	}
	if err := c.Events(ctx(t), "job-999999", 0, func(Event) error { return nil }); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events err = %v, want 404", err)
	}
	// Unknown artifact name → 404 (path traversal is unrepresentable:
	// only whitelisted names resolve).
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Artifact(ctx(t), st.ID, "secrets.txt"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact err = %v, want 404", err)
	}
}

// TestDurationJSON pins the wire format of the request's durations
// (the one JSON duration type, shared with workload specs).
func TestDurationJSON(t *testing.T) {
	var req campaign.Request
	if err := jsonUnmarshal(`{"experiments":"x","duration":"150ms","warmup":50000000}`, &req); err != nil {
		t.Fatal(err)
	}
	if req.Duration != wspec.Duration(150*sim.Millisecond) || req.Warmup != wspec.Duration(50*sim.Millisecond) {
		t.Errorf("decoded durations = %v, %v", &req.Duration, &req.Warmup)
	}
	b, err := json.Marshal(req)
	if err != nil || string(b) != `{"experiments":"x","duration":"150ms","warmup":"50ms"}` {
		t.Errorf("marshal = %s, %v", b, err)
	}
	if err := jsonUnmarshal(`{"experiments":"x","cell_timeout":null}`, &req); err != nil {
		t.Errorf("null duration rejected: %v", err)
	}
	if req.CellTimeout != 0 {
		t.Errorf("null cell_timeout = %v, want 0", &req.CellTimeout)
	}
	if err := jsonUnmarshal(`{"experiments":"x","shard":2}`, &req); err == nil {
		t.Error("unknown request field accepted")
	}
}

func jsonUnmarshal(s string, v any) error {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// waitState polls a job until it reaches state (or is past it).
func waitState(t *testing.T, c *Client, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(ctx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want || st.State.Terminal() {
			if st.State != want {
				t.Fatalf("job %s reached %s while waiting for %s", id, st.State, want)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// waitReadyz polls /readyz until it returns code.
func waitReadyz(t *testing.T, c *Client, code int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.HTTPClient.Get(c.BaseURL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == code {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("/readyz never returned %d", code)
}

// TestCloseRightAfterNew pins that Close stops the janitor even when it
// runs before the janitor goroutine first does: the janitor is handed
// its stop channel at start, so it cannot read the nil Close leaves in
// its place and wait forever.
func TestCloseRightAfterNew(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 20 {
		s, err := New(Config{SpecBuilder: synthSpec, DataDir: t.TempDir(), ArtifactTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return: the janitor missed its stop signal")
		}
	}
}
