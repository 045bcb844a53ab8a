package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"presto"
	"presto/internal/campaign"
	"presto/internal/server"
	"presto/internal/sim"
)

// TestServerRunMatchesCLIRun is the headline acceptance check: a real
// experiment campaign (fig5, the cheapest simulator cells) submitted
// through the daemon's spec builder and executed server-side at
// parallelism 4 with 2 concurrent server workers must produce a
// report.json byte-identical to the same spec run directly at
// parallelism 1 — the path cmd/experiments -out takes.
func TestServerRunMatchesCLIRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulator cells")
	}
	req := server.JobRequest{
		Experiments: "fig5",
		Seeds:       2,
		Parallelism: 4,
		Duration:    server.Duration(20 * time.Millisecond),
		Warmup:      server.Duration(5 * time.Millisecond),
	}

	// Reference: the exact sequence cmd/experiments performs.
	opt := presto.Options{
		Duration: sim.FromDuration(20 * time.Millisecond),
		Warmup:   sim.FromDuration(5 * time.Millisecond),
	}
	refSpec, err := presto.CampaignSpec("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	refSpec.Seeds = campaign.Seeds(1, 2)
	refSpec.Parallelism = 1
	refSpec.CellTimeout = time.Minute
	refReport, err := presto.RunCampaign(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refReport.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// Server side: same request through prestod's builder.
	srv, err := server.New(server.Config{
		SpecBuilder: specBuilder(time.Minute),
		DataDir:     t.TempDir(),
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := &server.Client{BaseURL: ts.URL}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	got, err := c.Artifact(ctx, st.ID, "report.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("server report.json differs from direct CLI-style run:\nserver %d bytes, direct %d bytes", len(got), want.Len())
	}
	if final.SpecHash != refReport.SpecHash {
		t.Errorf("spec hash: server %s, direct %s", final.SpecHash, refReport.SpecHash)
	}
}

// TestFrontDoorsAgree runs the same workload through all three front
// doors — `experiments -workload stride`, a prestod {"workload":
// "stride"} job, and `prestosim -workload stride -seeds 2` — and
// requires byte-equal results: the daemon's report.json equals the
// CLI's stdout, and prestosim's envelope lines equal the report's
// Presto cell rendered the same way. One cell builder behind every
// door is what makes this hold.
func TestFrontDoorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two CLIs and runs real simulator cells")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"experiments", "prestosim"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "presto/cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	windows := []string{"-duration", "10ms", "-warmup", "5ms", "-seeds", "2"}

	cli, err := exec.Command(filepath.Join(bin, "experiments"),
		append([]string{"-workload", "stride", "-format", "json"}, windows...)...).Output()
	if err != nil {
		t.Fatalf("experiments: %v", err)
	}

	srv, err := server.New(server.Config{SpecBuilder: specBuilder(time.Minute), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := &server.Client{BaseURL: ts.URL}
	st, err := c.Submit(ctx, server.JobRequest{
		Workload: json.RawMessage(`"stride"`),
		Seeds:    2,
		Duration: server.Duration(10 * time.Millisecond),
		Warmup:   server.Duration(5 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != server.StateDone {
		t.Fatalf("job finished %+v, %v", final, err)
	}
	daemon, err := c.Artifact(ctx, st.ID, "report.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(daemon, cli) {
		t.Errorf("prestod report.json (%d bytes) differs from experiments stdout (%d bytes)", len(daemon), len(cli))
	}

	sim, err := exec.Command(filepath.Join(bin, "prestosim"),
		append([]string{"-workload", "stride", "-system", "presto"}, windows...)...).Output()
	if err != nil {
		t.Fatalf("prestosim: %v", err)
	}
	var report campaign.Report
	if err := json.Unmarshal(cli, &report); err != nil {
		t.Fatal(err)
	}
	cell := report.Cell("workload-spec/wl=stride/sys=Presto")
	if cell == nil {
		t.Fatal("experiments report has no Presto cell")
	}
	names := make([]string, 0, len(cell.Envelopes))
	for k := range cell.Envelopes {
		names = append(names, k)
	}
	sort.Strings(names)
	want := ""
	for _, k := range names {
		want += fmt.Sprintf("  %-16s %s\n", k, cell.Envelopes[k].String())
	}
	if _, got, _ := strings.Cut(string(sim), "\n"); got != want {
		t.Errorf("prestosim envelopes differ from the experiments report's Presto cell:\n--- prestosim ---\n%s--- experiments ---\n%s", got, want)
	}
}

// TestSpecBuilderDefaults checks the flag-parity defaults: seed 1, one
// seed replica, and the daemon's fallback cell timeout.
func TestSpecBuilderDefaults(t *testing.T) {
	build := specBuilder(90 * time.Second)
	spec, err := build(server.JobRequest{Experiments: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 1 {
		t.Errorf("default seeds = %v, want [1]", spec.Seeds)
	}
	if spec.CellTimeout != 90*time.Second {
		t.Errorf("default cell timeout = %v, want 90s", spec.CellTimeout)
	}
	if _, err := build(server.JobRequest{}); err == nil {
		t.Error("empty experiments accepted, want error")
	}
	if _, err := build(server.JobRequest{Experiments: "nosuch"}); err == nil {
		t.Error("unknown experiment accepted, want error")
	}
}

// TestPrestodSIGTERMDrain boots the daemon on an ephemeral port, runs
// a real job through it, then delivers SIGTERM and requires a clean
// exit (code 0) within the drain deadline with artifacts intact.
func TestPrestodSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulator cells and delivers signals")
	}
	dataDir := t.TempDir()
	ready := make(chan string, 1)
	var stderr strings.Builder
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-data", dataDir,
			"-drain-timeout", "30s",
			"-cell-timeout", "1m",
		}, &stderr, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited early with code %d\n%s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := &server.Client{BaseURL: "http://" + addr}
	st, err := c.Submit(ctx, server.JobRequest{
		Experiments: "fig5",
		Duration:    server.Duration(10 * time.Millisecond),
		Warmup:      server.Duration(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit code %d after SIGTERM, want 0\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	// Completed artifacts survive the drain.
	if _, err := os.Stat(dataDir + "/" + st.ID + "/report.json"); err != nil {
		t.Errorf("artifact missing after drain: %v", err)
	}
	if !strings.Contains(stderr.String(), "drained; exiting") {
		t.Errorf("missing drain log line in stderr:\n%s", stderr.String())
	}
}
