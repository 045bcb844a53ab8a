package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presto"
	"presto/internal/campaign"
	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

// TestCaptureReplays closes the capture→replay loop: record mice-heavy
// into a replay spec, load that spec like any workload file, and check
// every recorded flow starts again. The recorded times include the
// warmup, so a replay under the default windows measures the flows the
// 10 ms capture window saw. The spec's hash covers the flows: a
// capture under another seed records other traffic and gets another
// hash.
func TestCaptureReplays(t *testing.T) {
	capture := func(seed string) (*wspec.Spec, int) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "r.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "mice-heavy", "-system", "flowlet100", "-seed", seed, "-duration", "10ms", "-flows", path}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("capture exited %d:\n%s", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "workload mice-heavy (spec ") || !strings.Contains(stdout.String(), "on flowlet100: 10ms simulated") {
			t.Errorf("header missing the workload, system or window:\n%s", stdout.String())
		}
		var recorded int
		var hash string
		_, tail, _ := strings.Cut(stdout.String(), "wrote ")
		if _, err := fmt.Sscanf(tail, "%d flow starts to "+path+" (spec %16s", &recorded, &hash); err != nil || recorded < 5 {
			t.Fatalf("no flow-start count and spec hash in output (%v):\n%s", err, stdout.String())
		}
		ws, err := wspec.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Name != "mice-heavy-replay" || ws.Hash() != hash {
			t.Errorf("replay spec %q hashes to %s; capture printed %s", ws.Name, ws.Hash(), hash)
		}
		return ws, recorded
	}

	ws, recorded := capture("3")
	c := cluster.New(cluster.Config{Topology: topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{}), Seed: 1, Scheme: "presto"})
	g, err := wspec.Compile(ws, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	until := campaign.DefaultWarmup + 10*sim.Millisecond // the capture's windows
	g.Start(until)
	c.Eng.Run(until)
	if res := g.Results(c.Eng.Now()); len(res) != 1 || res[0].Started != recorded || res[0].Finished == 0 {
		t.Errorf("replay: %+v, capture recorded %d flow starts", res, recorded)
	}

	cell, err := presto.SpecCell("presto", ws)
	if err != nil {
		t.Fatal(err)
	}
	cell.Topo = "clos:hpl=2,leaves=2,spines=2"
	res, err := cell.Run(presto.Options{Seed: 1}) // the default windows
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics["client_replay_started"]; n <= 0 {
		t.Errorf("replay under the default windows measured %v flow starts, want > 0", n)
	}

	if other, _ := capture("4"); other.Hash() == ws.Hash() {
		t.Errorf("captures under seeds 3 and 4 share workload hash %s", ws.Hash())
	}
}

// TestCapturePcapOut runs capture with -out and reads the file back:
// it holds exactly the frame count the run prints, and every frame
// decodes through packet.Unmarshal.
func TestCapturePcapOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pcap")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-duration", "5ms", "-flows", "", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("capture exited %d:\n%s", code, stderr.String())
	}
	var printed int
	_, tail, _ := strings.Cut(stdout.String(), "captured ")
	if _, err := fmt.Sscanf(tail, "%d frames", &printed); err != nil || printed == 0 {
		t.Fatalf("no frame count in output (%v):\n%s", err, stdout.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := readAllPcap(f)
	if err != nil {
		t.Fatalf("frame %d: %v", len(recs), err)
	}
	if len(recs) != printed {
		t.Fatalf("pcap holds %d frames, capture printed %d", len(recs), printed)
	}
	for i, r := range recs {
		if r.Packet.Flow.Dst.Host != 2 && r.Packet.Flow.Src.Host != 2 {
			t.Fatalf("frame %d (%v) does not involve the tapped host 2", i, r.Packet.Flow)
		}
	}
}

// TestCaptureNorthSouth runs the north-south preset, whose clients
// need remote users: capture's cluster is the cell's, so it gets one
// remote user per spine, and under Optimal the single-switch rebuild
// keeps them.
func TestCaptureNorthSouth(t *testing.T) {
	for _, sys := range []string{"ecmp", "optimal"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "north-south", "-system", sys, "-duration", "2ms", "-flows", ""}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-system %s: capture exited %d:\n%s", sys, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "workload north-south (spec ") {
			t.Errorf("-system %s: header missing the workload:\n%s", sys, stdout.String())
		}
	}
}

// TestCaptureUsageErrors checks the exit-code contract: bad flags and
// system names are usage errors (2), a bad workload a run error (1).
func TestCaptureUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-notaflag"}, 2, "notaflag"},
		{[]string{"-system", "nope"}, 2, "unknown system"},
		{[]string{"-workload", "nope", "-flows", ""}, 1, "workload"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit code %d, want %d with %q on stderr:\n%s", tc.args, code, tc.code, tc.want, stderr.String())
		}
	}
}
