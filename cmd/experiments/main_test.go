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
// resolves through the same name table as prestosim -system, so the
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
