package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presto/internal/campaign"
)

// fastArgs keeps CLI tests quick: fig5 is the cheapest experiment and
// the simulated windows are cut far below the defaults.
func fastArgs(extra ...string) []string {
	return append([]string{"-run", "fig5", "-duration", "10ms", "-warmup", "5ms"}, extra...)
}

// TestStdoutIsMachineParseableJSON pipes stdout straight into the JSON
// parser: every progress/diagnostic line must be on stderr only.
func TestStdoutIsMachineParseableJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fastArgs("-format", "json"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	var report campaign.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\nstdout:\n%s", err, stdout.String())
	}
	if len(report.Cells) == 0 {
		t.Fatal("parsed report has no cells")
	}
	if !strings.Contains(stderr.String(), "[campaign]") {
		t.Error("expected campaign progress lines on stderr")
	}
}

// TestStdoutIsMachineParseableCSV does the same through encoding/csv.
func TestStdoutIsMachineParseableCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fastArgs("-format", "csv"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	rows, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatalf("stdout is not valid CSV: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("expected header + data rows, got %d rows", len(rows))
	}
	want := []string{"experiment", "cell", "metric", "mean", "stddev", "min", "max", "n"}
	for i, col := range want {
		if rows[0][i] != col {
			t.Fatalf("header[%d] = %q, want %q", i, rows[0][i], col)
		}
	}
}

// TestGateUpdateThenCheck regenerates a golden file and immediately
// gates the same configuration against it: no drift, exit 0.
func TestGateUpdateThenCheck(t *testing.T) {
	golden := filepath.Join(t.TempDir(), "mini.json")
	var stdout, stderr bytes.Buffer
	if code := run(fastArgs("-gate", golden, "-update"), &stdout, &stderr); code != 0 {
		t.Fatalf("update exit code = %d, stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(golden); err != nil {
		t.Fatalf("golden file not written: %v", err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(fastArgs("-gate", golden), &stdout, &stderr); code != 0 {
		t.Fatalf("check exit code = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regression gate passed") {
		t.Errorf("expected gate-passed notice on stderr, got:\n%s", stderr.String())
	}
}

// TestGateFailsOnDrift perturbs a golden value beyond tolerance and
// expects exit code 1 with a per-metric diff on stderr.
func TestGateFailsOnDrift(t *testing.T) {
	golden := filepath.Join(t.TempDir(), "mini.json")
	var stdout, stderr bytes.Buffer
	if code := run(fastArgs("-gate", golden, "-update"), &stdout, &stderr); code != 0 {
		t.Fatalf("update exit code = %d, stderr:\n%s", code, stderr.String())
	}
	g, err := campaign.LoadGolden(golden)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := false
	for cell, ms := range g.Cells {
		for metric, v := range ms {
			if v != 0 {
				g.Cells[cell][metric] = v * 1.5
				perturbed = true
				break
			}
		}
		if perturbed {
			break
		}
	}
	if !perturbed {
		t.Fatal("no non-zero golden metric to perturb")
	}
	if err := g.Save(golden); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(fastArgs("-gate", golden), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drifted beyond tolerance") {
		t.Errorf("expected drift diagnostics on stderr, got:\n%s", stderr.String())
	}
}

// TestReplicaFailureSetsExitCode forces every replica to time out and
// checks the non-zero exit code plus the failure report on stderr.
func TestReplicaFailureSetsExitCode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(fastArgs("-timeout", "1ns", "-format", "json"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "replica(s) failed") {
		t.Errorf("expected failure summary on stderr, got:\n%s", stderr.String())
	}
	// stdout must still parse: failures are reported, not corrupting.
	var report campaign.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("stdout is not valid JSON after failures: %v", err)
	}
	if len(report.FailedReplicas()) == 0 {
		t.Error("report records no failed replicas")
	}
}

// TestListPrintsExperiments sanity-checks -list output.
func TestListPrintsExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, id := range []string{"fig1", "fig5", "table1", "ablations"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// TestUnknownExperimentIsUsageError checks the exit-code contract.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Errorf("expected the unknown ID in the error, got:\n%s", stderr.String())
	}
}

// TestArtifactsWritten checks -out produces the three artifact files
// and that the manifest carries the spec hash from the report.
func TestArtifactsWritten(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(fastArgs("-format", "json", "-out", dir), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	var report campaign.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	var manifest campaign.Manifest
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.SpecHash != report.SpecHash {
		t.Errorf("manifest spec hash %q != report %q", manifest.SpecHash, report.SpecHash)
	}
	for _, name := range []string{"report.json", "report.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}
}

// reportOf runs the CLI with -format json and parses the report.
func reportOf(t *testing.T, args ...string) campaign.Report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-format", "json"), &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit code = %d, stderr:\n%s", args, code, stderr.String())
	}
	var report campaign.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	return report
}

// TestSchemeAcceptsPaperNames pins the first front-door bug: -scheme
// resolves through the root package's one lineup table, so the
// paper's Optimal baseline (and a registry spec beside it) sweep a
// workload, and a bad name is a usage error listing both kinds.
func TestSchemeAcceptsPaperNames(t *testing.T) {
	report := reportOf(t, "-workload", "elephants", "-scheme", "optimal,diffflow:threshold=512KB", "-duration", "5ms", "-warmup", "2ms")
	for _, id := range []string{"workload-spec/wl=elephants/sys=Optimal", "workload-spec/wl=elephants/sys=diffflow:threshold=512KB"} {
		if e, ok := report.Envelope(id, "tput_gbps"); !ok || e.Mean <= 0 {
			t.Errorf("cell %s: no throughput (%v, %v)", id, e, ok)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "elephants", "-scheme", "optimum"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown scheme: exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flowlet100") || !strings.Contains(stderr.String(), "diffflow") {
		t.Errorf("unknown-scheme error should list paper names and registry schemes:\n%s", stderr.String())
	}
}

// TestSchemeMatrixParamsReachIDsAndTable pins the second: a param
// override changes the scheme-matrix cell IDs and spec hash, and the
// table groups the variant's cells into its own row — rows and columns
// come from the report, so the restricted grid renders exactly the
// rows it has.
func TestSchemeMatrixParamsReachIDsAndTable(t *testing.T) {
	args := func(scheme string) []string {
		return []string{"-run", "scheme-matrix", "-scheme", scheme, "-duration", "5ms", "-warmup", "2ms"}
	}
	def, tuned := reportOf(t, args("presto")...), reportOf(t, args("presto:cell=16KB")...)
	if def.SpecHash == tuned.SpecHash {
		t.Errorf("presto and presto:cell=16KB share spec hash %s", def.SpecHash)
	}
	if def.Cell("scheme-matrix/scheme=presto/wl=elephants/topo=clos") == nil {
		t.Error("default-parameter cell ID moved")
	}
	if tuned.Cell("scheme-matrix/scheme=presto:cell=16KB/wl=elephants/topo=clos") == nil || tuned.Cell("scheme-matrix/scheme=presto/wl=elephants/topo=clos") != nil {
		t.Errorf("param override did not reach the cell IDs: first cell %s", tuned.Cells[0].ID)
	}

	var stdout, stderr bytes.Buffer
	if code := run(args("presto:cell=16KB,presto"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	var rows []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if name, _, _ := strings.Cut(line, " "); strings.HasPrefix(name, "presto") {
			rows = append(rows, name)
		}
	}
	if got, want := strings.Join(rows, " "), strings.TrimSpace(strings.Repeat("presto:cell=16KB presto ", 3)); got != want {
		t.Errorf("matrix rows = %q, want %q (one row per variant in each of the three workload tables)\n%s", got, want, stdout.String())
	}
}

// TestRunTraceExport wires every telemetry flag through one serial
// workload run and parses the outputs back: the Chrome trace holds a
// FlowcellEmit and a GROFlush with a reason, the event log is JSON
// Lines, the snapshot has the engine's probe, and -v prints the
// summary table on stderr.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	snapPath := filepath.Join(dir, "snap.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-workload", "stride", "-scheme", "presto", "-parallel", "1",
		"-warmup", "5ms", "-duration", "10ms",
		"-trace", tracePath, "-events", eventsPath, "-snapshot", snapPath, "-v",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
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

	evRaw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(evRaw, []byte("\n"))
	var rec map[string]any
	if err := json.Unmarshal(first, &rec); err != nil {
		t.Fatalf("bad JSONL first line: %v", err)
	}

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
	if _, ok := snap.Components["engine"]; !ok {
		t.Fatalf("snapshot has no engine probe: %d components", len(snap.Components))
	}

	if !strings.Contains(stderr.String(), "peak_pending") {
		t.Fatalf("-v summary missing from stderr:\n%s", stderr.String())
	}
}

// TestPodTrafficSeedsAndShards runs the podtraffic row on a fabric
// chosen by -topo: its report is byte-equal at one shard and at more
// shards than pods, and -topo is refused (exit 2, naming the offending
// key or selection) with any other selection or a bad spec.
func TestPodTrafficSeedsAndShards(t *testing.T) {
	report := func(shards string) []byte {
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-run", "podtraffic", "-topo", "clos3:pods=3,hpl=1", "-scheme", "presto",
			"-warmup", "1ms", "-duration", "3ms", "-seeds", "2", "-shards", shards, "-format", "json",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-shards %s: exit code = %d, stderr:\n%s", shards, code, stderr.String())
		}
		return stdout.Bytes()
	}
	serial := report("1")
	if sharded := report("8"); !bytes.Equal(serial, sharded) {
		t.Errorf("-shards 8 report differs from -shards 1:\n%s\n%s", serial, sharded)
	}
	var r campaign.Report
	if err := json.Unmarshal(serial, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cell("podtraffic/topo=clos3:hpl=1,pods=3/sys=Presto") == nil || len(r.Cells) != 1 {
		t.Errorf("want the one cell podtraffic/topo=clos3:hpl=1,pods=3/sys=Presto, got %d cells:\n%s", len(r.Cells), serial)
	}
	for _, tc := range []struct{ args, names []string }{
		{[]string{"-topo", "clos3:pods=3", "-run", "fig7"}, []string{`"fig7"`}},
		{[]string{"-topo", "clos3:pods=3", "-workload", "elephants"}, []string{"workload"}},
		{[]string{"-run", "podtraffic", "-topo", "mesh:leaves=1"}, []string{"param(s) leaves"}},
		{[]string{"-run", "podtraffic", "-topo", "clos3:pods=0"}, []string{"param pods"}},
		{[]string{"-run", "podtraffic", "-topo", "clos3:pods=26,hpl=20"}, []string{"param pods"}},
		{[]string{"-run", "podtraffic", "-topo", "clos:spines=two"}, []string{"param spines"}},
		{[]string{"-run", "podtraffic", "-topo", "torus"}, []string{`"torus"`}},
		{[]string{"-run", "podtraffic", "-topo", "single:hosts=4"}, []string{"single:hosts=4", "1 pod"}},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit code = %d, want 2", tc.args, code)
		}
		for _, name := range tc.names {
			if !strings.Contains(stderr.String(), name) {
				t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), name)
			}
		}
	}
}

// TestParseWorkloadAll runs every paper workload preset through
// -workload over a tiny window; each table section is titled with the
// spec's name, and an unknown name is a usage error naming the presets.
func TestParseWorkloadAll(t *testing.T) {
	for _, w := range []string{"stride", "shuffle", "random", "bijection", "trace-mix", "north-south"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload", w, "-scheme", "presto", "-warmup", "1ms", "-duration", "2ms"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-workload %s: exit code = %d, stderr:\n%s", w, code, stderr.String())
		}
		if title := "==== workload-spec: " + w + " ====\n"; !strings.HasPrefix(stdout.String(), title) {
			t.Errorf("-workload %s: want title %q, got:\n%s", w, title, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "bogus"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "stride") {
		t.Errorf("bogus workload: exit code %d, stderr %q; want 2 and the presets listed", code, stderr.String())
	}
}

// TestRunRejectsBadFlags checks usage errors exit 2.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-notaflag"}, {"-workload", "stride", "-scheme", "nope"}, {"-duration", "soon"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", args, code)
		}
	}
}

// TestRunSeedReplicas checks -seeds N reports envelopes over N
// replicas and that the table is the same bytes at any -parallel.
func TestRunSeedReplicas(t *testing.T) {
	replicated := func(parallel string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "stride", "-scheme", "presto", "-warmup", "5ms", "-duration", "10ms",
			"-seeds", "3", "-parallel", parallel}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-parallel %s: exit code = %d, stderr:\n%s", parallel, code, stderr.String())
		}
		return stdout.String()
	}
	serial := replicated("1")
	if !strings.Contains(serial, "(3-seed envelopes: mean ±stddev)") || !strings.Contains(serial, "tput_gbps") {
		t.Fatalf("no 3-seed envelopes:\n%s", serial)
	}
	if got := replicated("4"); got != serial {
		t.Errorf("-parallel 4 output differs from -parallel 1:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}
}
