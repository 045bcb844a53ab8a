package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"presto"
	"presto/internal/campaign"
	"presto/internal/server"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// TestServerRunMatchesCLIRun is the headline acceptance check: a real
// experiment campaign (fig5, the cheapest simulator cells) submitted
// to the daemon and executed server-side at parallelism 4 with 2
// concurrent server workers must produce a report.json byte-identical
// to the same request built and run directly at parallelism 1 — the
// path cmd/experiments -out takes.
func TestServerRunMatchesCLIRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulator cells")
	}
	req := campaign.Request{
		Experiments: "fig5",
		Seeds:       2,
		Parallelism: 4,
		Duration:    wspec.Duration(20 * sim.Millisecond),
		Warmup:      wspec.Duration(5 * sim.Millisecond),
	}

	// Reference: what cmd/experiments does with the same flags, serially.
	serial := req
	serial.Parallelism = 1
	refSpec, err := presto.Campaign(serial, nil)
	if err != nil {
		t.Fatal(err)
	}
	refReport, err := campaign.Run(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refReport.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// Server side: same request through prestod's builder.
	srv, err := server.New(server.Config{
		SpecBuilder: jobBuilder(time.Minute),
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

// buildCommands compiles the named main packages into a temp dir and
// returns it; binaries are named after the package directory.
func buildCommands(t *testing.T, pkgs ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, pkg := range pkgs {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, filepath.Base(pkg)), "presto/"+pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return bin
}

// TestRequestFlagParity checks the batch CLI against the request type
// by reading its -h output: every JSON field of campaign.Request is a
// flag on `experiments` (four keep a flag spelling of their own).
func TestRequestFlagParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI")
	}
	bin := buildCommands(t, "cmd/experiments")
	// help returns flag name → its block of `cmd -h` (header, usage, default).
	help := func(cmd string) map[string]string {
		out, _ := exec.Command(filepath.Join(bin, cmd), "-h").CombinedOutput() // -h exits 2 by design
		blocks := map[string]string{}
		name := ""
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				name, _, _ = strings.Cut(rest, " ")
			}
			if name != "" {
				blocks[name] += line + "\n"
			}
		}
		return blocks
	}
	experiments := help("experiments")

	spelling := map[string]string{"experiments": "run", "parallelism": "parallel", "cell_timeout": "timeout", "topology": "topo"}
	rt := reflect.TypeOf(campaign.Request{})
	for i := 0; i < rt.NumField(); i++ {
		field, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		name := field
		if s, ok := spelling[field]; ok {
			name = s
		}
		if experiments[name] == "" {
			t.Errorf("request field %q has no -%s flag on experiments", field, name)
		}
	}
	if len(experiments) < rt.NumField() {
		t.Fatalf("parsed %d flags from -h output", len(experiments))
	}
}

// TestFrontDoorsAgree sends one request through every front door and
// requires the same spec hash and byte-equal results. A workload swept
// over a paper name, a registry name and a param override (the scheme
// list every door resolves through presto's one lineup table) goes through
// `experiments` flags and a prestod JSON job submitted and fetched
// with `prestoctl`; so does the podtraffic row on a -topo fabric. The
// fig5 request examples/serving hard-codes must
// reach the spec hash and report size `experiments` gives for the same
// flags. One builder behind every door is what makes this hold.
func TestFrontDoorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs real simulator cells")
	}
	bin := buildCommands(t, "cmd/experiments", "cmd/prestoctl", "examples/serving")
	output := func(name string, stdin string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdin = strings.NewReader(stdin)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return out
	}
	srv, err := server.New(server.Config{SpecBuilder: jobBuilder(time.Minute), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// agree runs flags through experiments and job through prestod and
	// prestoctl, and returns the report both must print.
	agree := func(job string, flags ...string) campaign.Report {
		t.Helper()
		cli := output("experiments", "", append(flags, "-format", "json")...)
		var report campaign.Report
		if err := json.Unmarshal(cli, &report); err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		out := output("prestoctl", job, "-addr", ts.URL, "submit", "-wait", "-")
		if err := json.Unmarshal(out, &st); err != nil || st.State != server.StateDone {
			t.Fatalf("prestoctl submit -wait: %v\n%s", err, out)
		}
		if st.SpecHash != report.SpecHash {
			t.Errorf("spec hash: prestod %s, experiments %s", st.SpecHash, report.SpecHash)
		}
		if daemon := output("prestoctl", "", "-addr", ts.URL, "fetch", st.ID); !bytes.Equal(daemon, cli) {
			t.Errorf("prestod report.json (%d bytes) differs from experiments stdout (%d bytes)", len(daemon), len(cli))
		}
		return report
	}

	const schemes = "optimal,presto,presto:cell=32KB"
	report := agree(`{"workload":"stride","scheme":"`+schemes+`","seeds":2,"duration":"10ms","warmup":"5ms"}`,
		"-workload", "stride", "-scheme", schemes, "-duration", "10ms", "-warmup", "5ms", "-seeds", "2")
	for _, id := range []string{"workload-spec/wl=stride/sys=Optimal", "workload-spec/wl=stride/sys=Presto", "workload-spec/wl=stride/sys=presto:cell=32KB"} {
		if report.Cell(id) == nil {
			t.Errorf("experiments report has no cell %s", id)
		}
	}
	// A resized pod fabric is a request field on both doors.
	report = agree(`{"experiments":"podtraffic","topology":"clos3:pods=2,hpl=1","scheme":"presto","duration":"2ms","warmup":"1ms"}`,
		"-run", "podtraffic", "-topo", "clos3:pods=2,hpl=1", "-scheme", "presto", "-duration", "2ms", "-warmup", "1ms")
	if id := "podtraffic/topo=clos3:hpl=1,pods=2/sys=Presto"; len(report.Cells) != 1 || report.Cell(id) == nil {
		t.Errorf("podtraffic report has %d cells, want the one cell %s", len(report.Cells), id)
	}

	// examples/serving submits fig5 × 2 seeds at 20 ms / 5 ms to its own
	// in-process daemon and prints what it fetched.
	fig5 := output("experiments", "", "-run", "fig5", "-seeds", "2", "-duration", "20ms", "-warmup", "5ms", "-format", "json")
	if err := json.Unmarshal(fig5, &report); err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("report.json: spec %s, %d cells, %d bytes", report.SpecHash, len(report.Cells), len(fig5))
	if serving := output("serving", ""); !strings.Contains(string(serving), wantLine) {
		t.Errorf("examples/serving did not fetch the report experiments produces; want %q in:\n%s", wantLine, serving)
	}
}

// TestSpecBuilderDefaults pins the one defaults rule of the shared
// builder as the daemon sees it: a zero field means its default (seed
// 1, one replica — the values the CLI flags default to), an explicit
// cell timeout wins over the daemon's fallback, and a request the
// builder rejects — including shards a workload cannot run on and a
// bad or misplaced topology — is a 400 carrying the builder's error,
// not a failed or panicking job.
func TestSpecBuilderDefaults(t *testing.T) {
	build := jobBuilder(90 * time.Second)
	spec, err := build(campaign.Request{Experiments: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 1 {
		t.Errorf("default seeds = %v, want [1]", spec.Seeds)
	}
	if spec.CellTimeout != 90*time.Second {
		t.Errorf("default cell timeout = %v, want 90s", spec.CellTimeout)
	}
	explicit, err := build(campaign.Request{Experiments: "fig5", Seed: 1, Seeds: 1, CellTimeout: wspec.Duration(2 * sim.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Hash() != spec.Hash() || explicit.CellTimeout != 2*time.Second {
		t.Errorf("explicit defaults: hash %s vs %s, cell timeout %v", explicit.Hash(), spec.Hash(), explicit.CellTimeout)
	}
	if _, err := build(campaign.Request{}); err == nil {
		t.Error("empty experiments accepted, want error")
	}
	if _, err := build(campaign.Request{Experiments: "nosuch"}); err == nil {
		t.Error("unknown experiment accepted, want error")
	}

	srv, err := server.New(server.Config{SpecBuilder: build, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &server.Client{BaseURL: ts.URL}
	_, err = c.Submit(context.Background(), campaign.Request{Workload: json.RawMessage(`"stride"`), Shards: 2})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, "clients[1].arrival.process") {
		t.Errorf("unshardable workload at shards 2: err = %v, want a 400 naming clients[1].arrival.process", err)
	}
	for topology, names := range map[string]string{"mesh:leaves=1": "param(s) leaves", "torus": `"torus"`, "clos3:pods=26,hpl=20": "param pods"} {
		_, err = c.Submit(context.Background(), campaign.Request{Experiments: "podtraffic", Topology: topology})
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, names) {
			t.Errorf("podtraffic on %s: err = %v, want a 400 naming %s", topology, err, names)
		}
	}
	_, err = c.Submit(context.Background(), campaign.Request{Experiments: "fig7", Topology: "clos3"})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, `"fig7"`) {
		t.Errorf("fig7 with a topology: err = %v, want a 400 naming the selection", err)
	}
	if st, err := c.Submit(context.Background(), campaign.Request{Workload: json.RawMessage(`"elephants"`), Shards: 2, Scheme: "presto"}); err != nil {
		t.Errorf("shardable workload at shards 2 rejected: %v", err)
	} else if _, err := c.Cancel(context.Background(), st.ID); err != nil {
		t.Error(err)
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
	st, err := c.Submit(ctx, campaign.Request{
		Experiments: "fig5",
		Duration:    wspec.Duration(10 * sim.Millisecond),
		Warmup:      wspec.Duration(2 * sim.Millisecond),
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
