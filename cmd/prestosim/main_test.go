package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presto"
	wspec "presto/internal/workload/spec"
)

// TestParseSystemAll resolves every -system name through the entry
// point run uses, presto.SpecCell, and checks a bogus one is refused.
func TestParseSystemAll(t *testing.T) {
	ws, err := wspec.Preset("stride")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"ecmp", "mptcp", "presto", "optimal", "flowlet100",
		"flowlet500", "presto-ecmp", "per-packet"} {
		if _, err := presto.SpecCell(s, ws); err != nil {
			t.Errorf("SpecCell(%q): %v", s, err)
		}
	}
	if _, err := presto.SpecCell("bogus", ws); err == nil {
		t.Error("SpecCell accepted bogus system")
	}
}

// TestParseWorkloadAll smoke-runs every built-in -workload name over a
// tiny window, and checks an unknown one is a usage error naming the
// presets.
func TestParseWorkloadAll(t *testing.T) {
	for _, w := range []string{"stride", "shuffle", "random", "bijection", "podtraffic", "trace-mix", "north-south"} {
		var out bytes.Buffer
		if err := run([]string{"-workload", w, "-warmup", "1ms", "-duration", "2ms"}, &out); err != nil {
			t.Errorf("-workload %s: %v", w, err)
		}
		if !strings.Contains(out.String(), "workload="+w+"(spec ") {
			t.Errorf("-workload %s: header missing the spec name and hash:\n%s", w, out.String())
		}
	}
	var out bytes.Buffer
	err := run([]string{"-workload", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "stride") {
		t.Errorf("bogus workload: err = %v, want a usage error listing the presets", err)
	}
}

// TestPodTrafficSeedsAndShards pins the two front-door fixes that came
// with the single cell builder: podtraffic replicates over seeds, and
// the replicated header reports the shard count actually used (capped
// at the pod count) while the envelopes stay shard-independent.
func TestPodTrafficSeedsAndShards(t *testing.T) {
	replicated := func(shards string) string {
		var out bytes.Buffer
		err := run([]string{
			"-workload", "podtraffic", "-pods", "3", "-hosts-per-leaf", "1",
			"-warmup", "1ms", "-duration", "3ms", "-seeds", "2", "-shards", shards,
		}, &out)
		if err != nil {
			t.Fatalf("-shards %s: %v", shards, err)
		}
		return out.String()
	}
	serial, sharded := replicated("1"), replicated("8")
	if !strings.Contains(serial, "shards=1 seeds=1..2 (n=2)") {
		t.Errorf("serial header:\n%s", serial)
	}
	if !strings.Contains(sharded, "shards=3 seeds=1..2 (n=2)") {
		t.Errorf("-shards 8 on 3 pods should report 3 shards:\n%s", sharded)
	}
	if _, a, _ := strings.Cut(serial, "\n"); !strings.HasSuffix(sharded, a) {
		t.Errorf("envelopes differ across shard counts:\n%s\n%s", serial, sharded)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "nope"}, &out); err == nil {
		t.Error("bad -system accepted")
	}
	if err := run([]string{"-notaflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunEverySystem smoke-runs each -system value over a tiny window,
// and checks -scheme is the same setting under another name: a paper
// name and a registry spec each print the same header through both.
func TestRunEverySystem(t *testing.T) {
	header := func(flag, sys string) string {
		var out bytes.Buffer
		err := run([]string{
			flag, sys, "-workload", "stride",
			"-warmup", "5ms", "-duration", "10ms",
		}, &out)
		if err != nil {
			t.Fatalf("%s %s: %v", flag, sys, err)
		}
		if !strings.Contains(out.String(), "elephant throughput") {
			t.Fatalf("%s %s: missing output:\n%s", flag, sys, out.String())
		}
		first, _, _ := strings.Cut(out.String(), "\n")
		return first
	}
	for _, tc := range []struct {
		sys       string
		viaScheme bool // also run it through -scheme and compare headers
	}{
		{sys: "ecmp"}, {sys: "mptcp"}, {sys: "presto"}, {sys: "optimal"},
		{sys: "flowlet100", viaScheme: true}, {sys: "flowlet500"},
		{sys: "presto-ecmp"}, {sys: "per-packet"},
		{sys: "diffflow:threshold=512KB", viaScheme: true},
	} {
		h := header("-system", tc.sys)
		if !tc.viaScheme {
			continue
		}
		if hs := header("-scheme", tc.sys); hs != h {
			t.Errorf("-system %s and -scheme %s print different headers:\n%s\n%s", tc.sys, tc.sys, h, hs)
		}
	}
}

// TestRunTraceExport runs the flagship invocation from the README and
// parses the emitted Chrome trace back: it must be valid JSON holding
// at least one FlowcellEmit and one GROFlush with a populated reason.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	snapPath := filepath.Join(dir, "snap.json")
	var out bytes.Buffer
	err := run([]string{
		"-system", "presto", "-workload", "stride",
		"-warmup", "5ms", "-duration", "10ms",
		"-trace", tracePath, "-events", eventsPath, "-snapshot", snapPath, "-v",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	var flowcells, flushes int
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "i" {
			continue
		}
		switch ev.Name {
		case "FlowcellEmit":
			flowcells++
		case "GROFlush":
			if r, _ := ev.Args["reason"].(string); r == "" {
				t.Fatalf("GROFlush missing reason: %v", ev.Args)
			}
			flushes++
		}
	}
	if flowcells < 1 || flushes < 1 {
		t.Fatalf("trace incomplete: %d FlowcellEmit, %d GROFlush", flowcells, flushes)
	}

	// Events file: every line must be standalone JSON.
	evRaw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(evRaw), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("empty events file")
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("bad JSONL first line: %v", err)
	}

	// Snapshot file: valid JSON with components.
	snapRaw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Components map[string]map[string]any `json:"components"`
	}
	if err := json.Unmarshal(snapRaw, &snap); err != nil {
		t.Fatalf("bad snapshot JSON: %v", err)
	}
	if len(snap.Components) == 0 {
		t.Fatal("snapshot has no components")
	}
	if _, ok := snap.Components["engine"]; !ok {
		t.Fatal("snapshot missing engine probe")
	}

	// -v printed the summary table.
	if !strings.Contains(out.String(), "component") || !strings.Contains(out.String(), "peak_pending") {
		t.Fatalf("-v summary missing:\n%s", out.String())
	}
}

// TestRunSeedReplicas checks -seeds N prints per-metric envelopes and
// that replicated output is deterministic across -parallel settings.
func TestRunSeedReplicas(t *testing.T) {
	replicated := func(parallel string) string {
		var out bytes.Buffer
		err := run([]string{
			"-system", "presto", "-workload", "stride",
			"-warmup", "5ms", "-duration", "10ms",
			"-seeds", "3", "-parallel", parallel,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := replicated("1")
	if !strings.Contains(serial, "seeds=1..3 (n=3)") {
		t.Fatalf("missing seed range header:\n%s", serial)
	}
	for _, metric := range []string{"tput_gbps", "loss_pct", "fairness"} {
		if !strings.Contains(serial, metric) {
			t.Errorf("envelope output missing %s:\n%s", metric, serial)
		}
	}
	if got := replicated("4"); got != serial {
		t.Errorf("-parallel 4 output differs from -parallel 1:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}
}
