package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"presto/internal/campaign"
	"presto/internal/metrics"
	"presto/internal/server"
)

// testDaemon starts an in-process daemon backed by a tiny synthetic
// two-cell campaign and returns its base URL.
func testDaemon(t *testing.T) string {
	t.Helper()
	build := func(req campaign.Request) (*campaign.Spec, error) {
		cell := func(id string, base float64) campaign.Cell {
			return campaign.Cell{
				Experiment: "synth",
				ID:         id,
				Run: func(seed uint64) (campaign.Result, error) {
					d := &metrics.Dist{}
					for k := 0; k < 50; k++ {
						d.Add(base + float64(seed) + float64(k))
					}
					return campaign.Result{
						Metrics: campaign.Values{"v": base * float64(seed)},
						Dists:   map[string]*metrics.Dist{"lat": d},
					}, nil
				},
			}
		}
		seeds := req.Seeds
		if seeds <= 0 {
			seeds = 1
		}
		return &campaign.Spec{
			Cells:       []campaign.Cell{cell("synth/a", 3), cell("synth/b", 11)},
			Seeds:       campaign.Seeds(1, seeds),
			Parallelism: req.Parallelism,
			CellTimeout: 30 * time.Second,
		}, nil
	}
	srv, err := server.New(server.Config{SpecBuilder: build, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { srv.Close(); ts.Close() })
	return ts.URL
}

func runCtl(t *testing.T, url string, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	code = run(ctx, append([]string{"-addr", url}, args...), &out, &errb, strings.NewReader(stdin))
	return code, out.String(), errb.String()
}

func TestSubmitWaitFetch(t *testing.T) {
	url := testDaemon(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"experiments":"synth","seeds":2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errb := runCtl(t, url, "", "submit", "-wait", specPath)
	if code != 0 {
		t.Fatalf("submit -wait exited %d\nstderr: %s", code, errb)
	}
	var st server.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit -wait stdout is not a job JSON: %v\n%s", err, out)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state %s, want done", st.State)
	}
	for _, want := range []string{"submitted", "running", "done"} {
		if !strings.Contains(errb, want) {
			t.Errorf("stderr missing %q:\n%s", want, errb)
		}
	}

	// fetch with no -dir streams report.json to stdout.
	code, out, _ = runCtl(t, url, "", "fetch", st.ID)
	if code != 0 {
		t.Fatalf("fetch exited %d", code)
	}
	var rep struct {
		Cells []struct {
			ID string `json:"id"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil || len(rep.Cells) != 2 {
		t.Fatalf("fetched report.json: err=%v cells=%d\n%s", err, len(rep.Cells), out)
	}

	// fetch -dir downloads every artifact.
	outDir := filepath.Join(dir, "artifacts")
	code, _, _ = runCtl(t, url, "", "fetch", "-dir", outDir, st.ID)
	if code != 0 {
		t.Fatalf("fetch -dir exited %d", code)
	}
	for _, name := range []string{"manifest.json", "report.csv", "report.json"} {
		if _, err := os.Stat(filepath.Join(outDir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}

	// status and list round-trip.
	code, out, _ = runCtl(t, url, "", "status", st.ID)
	if code != 0 || !strings.Contains(out, `"done"`) {
		t.Errorf("status exited %d:\n%s", code, out)
	}
	code, out, _ = runCtl(t, url, "", "list")
	if code != 0 || !strings.Contains(out, st.ID) {
		t.Errorf("list exited %d:\n%s", code, out)
	}

	// events replays the full NDJSON history for a finished job.
	code, out, _ = runCtl(t, url, "", "events", st.ID)
	if code != 0 {
		t.Fatalf("events exited %d", code)
	}
	var states []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ev server.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Type == "state" {
			states = append(states, string(ev.State))
		}
	}
	if got := strings.Join(states, ","); got != "pending,running,done" {
		t.Errorf("event states %q, want pending,running,done", got)
	}
}

// TestStatsCommand exercises `prestoctl stats` one-shot and -follow
// against a finished job.
func TestStatsCommand(t *testing.T) {
	url := testDaemon(t)
	code, out, _ := runCtl(t, url, `{"experiments":"synth","seeds":2}`, "submit", "-")
	if code != 0 {
		t.Fatalf("submit exited %d", code)
	}
	var st server.JobStatus
	jsonMust(t, out, &st)
	if code, _, _ = runCtl(t, url, "", "wait", st.ID); code != 0 {
		t.Fatalf("wait exited %d", code)
	}

	code, out, _ = runCtl(t, url, "", "stats", st.ID)
	if code != 0 {
		t.Fatalf("stats exited %d", code)
	}
	var frame server.StatsFrame
	jsonMust(t, out, &frame)
	if frame.State != server.StateDone || !frame.Final {
		t.Fatalf("frame = %+v, want done/final", frame)
	}
	if len(frame.Dists) != 1 || frame.Dists[0].Name != "lat" || frame.Dists[0].N != 200 {
		t.Fatalf("dists = %+v, want lat with 200 samples", frame.Dists)
	}
	if d := frame.Dists[0]; d.P50 <= 0 || d.P999 < d.P50 {
		t.Fatalf("bad percentiles: %+v", d)
	}

	// -follow on a terminal job delivers the final frame and exits.
	code, out, _ = runCtl(t, url, "", "stats", "-follow", st.ID)
	if code != 0 {
		t.Fatalf("stats -follow exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	jsonMust(t, lines[len(lines)-1], &frame)
	if frame.State != server.StateDone {
		t.Fatalf("followed frame state = %s", frame.State)
	}

	// Unknown job → exit 2.
	if code, _, _ = runCtl(t, url, "", "stats", "job-999999"); code != 2 {
		t.Fatalf("stats on unknown job exited %d, want 2", code)
	}
}

func TestSubmitFromStdin(t *testing.T) {
	url := testDaemon(t)
	code, out, _ := runCtl(t, url, `{"experiments":"synth"}`, "submit", "-")
	if code != 0 {
		t.Fatalf("submit - exited %d", code)
	}
	var st server.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil || st.ID == "" {
		t.Fatalf("submit stdout: err=%v\n%s", err, out)
	}
	// wait on the submitted ID reaches done with exit 0.
	code, _, _ = runCtl(t, url, "", "wait", st.ID)
	if code != 0 {
		t.Errorf("wait exited %d, want 0", code)
	}
}

func TestCancelExitCode(t *testing.T) {
	url := testDaemon(t)
	// Submit against a daemon whose builder rejects the spec → exit 2.
	if code, _, _ := runCtl(t, url, `{`, "submit", "-"); code != 2 {
		t.Errorf("malformed spec exited %d, want 2", code)
	}
	// A cancelled pending job makes wait exit 1.
	code, out, _ := runCtl(t, url, `{"experiments":"synth"}`, "submit", "-")
	if code != 0 {
		t.Fatalf("submit exited %d", code)
	}
	var st server.JobStatus
	jsonMust(t, out, &st)
	if code, _, _ = runCtl(t, url, "", "cancel", st.ID); code != 0 {
		t.Fatalf("cancel exited %d", code)
	}
	code, _, errb := runCtl(t, url, "", "wait", st.ID)
	if code == 0 && !strings.Contains(errb, "cancelled") {
		// The job may have finished before the cancel landed; accept
		// either done (0) or cancelled (1), but not a transport error.
		t.Logf("job finished before cancel: %s", errb)
	}
	if code == 2 {
		t.Errorf("wait exited 2 (transport error): %s", errb)
	}
}

func TestUsageErrors(t *testing.T) {
	url := testDaemon(t)
	for _, args := range [][]string{
		{},
		{"nosuchcmd"},
		{"status"},
		{"fetch"},
		{"submit"},
	} {
		if code, _, _ := runCtl(t, url, "", args...); code != 2 {
			t.Errorf("args %v exited %d, want 2", args, code)
		}
	}
	// Unknown job → exit 2 with the server's error message.
	code, _, errb := runCtl(t, url, "", "status", "job-999999")
	if code != 2 || !strings.Contains(errb, "HTTP 404") {
		t.Errorf("unknown job exited %d (stderr %q), want 2 with HTTP 404", code, errb)
	}
}

func jsonMust(t *testing.T, s string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(s), v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, s)
	}
}
