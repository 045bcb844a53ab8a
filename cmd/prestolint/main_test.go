package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildTool compiles the prestolint binary into a temp dir and returns
// its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "prestolint")
	cmd := exec.Command("go", "build", "-o", tool, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building prestolint: %v\n%s", err, out)
	}
	return tool
}

// vet runs `go vet -vettool=tool pkgs...` inside the fixture module
// and returns the combined output plus the exit code.
func vet(t *testing.T, tool string, pkgs ...string) (string, int) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "vetmod"))
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"vet", "-vettool=" + tool}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// The fixture module has no dependencies; force module mode and
	// keep the run hermetic even if the environment sets GOFLAGS.
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GO111MODULE=on")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running go vet: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestVettoolFlagsBadPackage drives the real go vet -vettool pipeline
// against a known-bad fixture module and checks both the exit status
// and the diagnostic text.
func TestVettoolFlagsBadPackage(t *testing.T) {
	tool := buildTool(t)
	out, code := vet(t, tool, "./badclock")
	if code == 0 {
		t.Fatalf("go vet on bad fixture exited 0; output:\n%s", out)
	}
	for _, want := range []string{
		"[simclock]",
		"time.Now",
		"rand.Intn",
		"badclock.go",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("go vet output missing %q:\n%s", want, out)
		}
	}
}

// TestVettoolFlagsGeneratorPackage drives the pipeline against the
// generator-shaped fixture: spec-driven workload generation drawing
// from the global rand stream or reading the wall clock must be
// reported — the guarantee that keeps internal/workload/spec's
// generator deterministic per run seed.
func TestVettoolFlagsGeneratorPackage(t *testing.T) {
	tool := buildTool(t)
	out, code := vet(t, tool, "./badgen")
	if code == 0 {
		t.Fatalf("go vet on generator fixture exited 0; output:\n%s", out)
	}
	for _, want := range []string{
		"[simclock]",
		"rand.ExpFloat64",
		"time.Now",
		"badgen.go",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("go vet output missing %q:\n%s", want, out)
		}
	}
}

// TestVettoolPassesCleanPackage checks the clean fixture package comes
// back with exit status 0 and no diagnostics.
func TestVettoolPassesCleanPackage(t *testing.T) {
	tool := buildTool(t)
	out, code := vet(t, tool, "./clean")
	if code != 0 {
		t.Fatalf("go vet on clean fixture exited %d:\n%s", code, out)
	}
	if strings.Contains(out, "[simclock]") {
		t.Errorf("unexpected diagnostics on clean package:\n%s", out)
	}
}

// TestVersionHandshake checks the -V=full tool-identity handshake the
// go command uses to key its action cache.
func TestVersionHandshake(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("-V=full: %v\n%s", err, out)
	}
	fields := strings.Fields(string(out))
	if len(fields) < 3 || fields[1] != "version" ||
		!strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Errorf("-V=full output %q does not match \"<name> version ... buildID=<id>\"", out)
	}
}

// TestFlagsHandshake checks the -flags handshake prints the JSON flag
// declarations cmd/go parses to learn which flags it may forward.
func TestFlagsHandshake(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool, "-flags").CombinedOutput()
	if err != nil {
		t.Fatalf("-flags: %v\n%s", err, out)
	}
	var decls []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &decls); err != nil {
		t.Fatalf("-flags printed invalid JSON %q: %v", out, err)
	}
	if len(decls) != 1 || decls[0].Name != "json" || !decls[0].Bool {
		t.Errorf("-flags = %q, want the boolean json flag declared", out)
	}
}

// TestVettoolNewAnalyzers drives the real go vet pipeline against one
// tripping fixture package per PR-8 analyzer.
func TestVettoolNewAnalyzers(t *testing.T) {
	tool := buildTool(t)
	cases := []struct {
		pkg   string
		wants []string
	}{
		{"./badlock", []string{"[lockorder]", "lock order cycle", "badlock.go"}},
		{"./badclose", []string{"[errdrop]", "discarded error from Close", "badclose.go"}},
		{"./badalloc", []string{"[hotalloc]", "appends through a bare slice", "badalloc.go"}},
	}
	for _, tc := range cases {
		out, code := vet(t, tool, tc.pkg)
		if code == 0 {
			t.Errorf("go vet on %s exited 0; output:\n%s", tc.pkg, out)
			continue
		}
		for _, want := range tc.wants {
			if !strings.Contains(out, want) {
				t.Errorf("go vet output for %s missing %q:\n%s", tc.pkg, want, out)
			}
		}
	}
}

// TestVettoolJSONMode checks -json forwarding: diagnostics come back
// as parseable per-package JSON on stdout and the run exits 0 even on
// a tripping package, so CI can archive findings without failing.
func TestVettoolJSONMode(t *testing.T) {
	tool := buildTool(t)
	out, code := vet(t, tool, "-json", "./badclose")
	if code != 0 {
		t.Fatalf("go vet -json on bad fixture exited %d, want 0 (JSON mode archives, the plain run gates):\n%s", code, out)
	}
	var found bool
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") {
			continue // go vet prints "# pkg" headers around tool output
		}
		var decoded map[string]map[string][]struct {
			Posn    string `json:"posn"`
			End     string `json:"end"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &decoded); err != nil {
			t.Fatalf("-json emitted unparseable line %q: %v", line, err)
		}
		for _, byAnalyzer := range decoded {
			for _, diags := range byAnalyzer["errdrop"] {
				if strings.Contains(diags.Message, "discarded error") && diags.Posn != "" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("-json output has no errdrop diagnostic for badclose:\n%s", out)
	}
}

// TestSuppressionBudget exercises the -suppressions -budget CI gate:
// under budget passes, over budget and reason-less allows fail.
func TestSuppressionBudget(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	src := `package p

import "os"

func touch(f *os.File) {
	f.Close() //prestolint:allow errdrop -- fixture exercising the budget counter
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	writeBudget := func(name string, allows int) string {
		path := filepath.Join(dir, name)
		body := `{"_comment": "test budget", "budget": {"errdrop": ` + strconv.Itoa(allows) + `}}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	pass := writeBudget("ok.json", 1)
	out, err := exec.Command(tool, "-suppressions", "-budget", pass, dir).CombinedOutput()
	if err != nil {
		t.Errorf("-budget within limit failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "suppression budget ok") {
		t.Errorf("in-budget run missing ok line:\n%s", out)
	}

	fail := writeBudget("tight.json", 0)
	out, err = exec.Command(tool, "-suppressions", "-budget", fail, dir).CombinedOutput()
	if err == nil {
		t.Errorf("-budget over limit exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "budget exceeded: errdrop has 1") {
		t.Errorf("over-budget run missing exceeded line:\n%s", out)
	}
}

// TestSuppressionsRequireReason checks a bare //prestolint:allow fails
// the -suppressions audit.
func TestSuppressionsRequireReason(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	src := `package p

import "os"

func touch(f *os.File) {
	f.Close() //prestolint:allow errdrop
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(tool, "-suppressions", dir).CombinedOutput()
	if err == nil {
		t.Errorf("-suppressions on reason-less allow exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "without a '-- reason' tail") {
		t.Errorf("audit output missing reason diagnostic:\n%s", out)
	}
}

// TestSuppressionsListing checks the suppression audit mode finds the
// repo's own annotations and reports them with file positions.
func TestSuppressionsListing(t *testing.T) {
	tool := buildTool(t)
	cmd := exec.Command(tool, "-suppressions", "testdata/vetmod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-suppressions: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 suppression(s)") {
		t.Errorf("-suppressions on fixture module = %q, want 0 suppressions", out)
	}
}
