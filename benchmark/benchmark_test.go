package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// TestMain shrinks the calibration chunks: the smoke tests check that
// host times are reported, not what they are.
func TestMain(m *testing.M) {
	calibChunkEvents = 100
	os.Exit(m.Run())
}

// smokeWindow is the simulated window the smoke tests run: long enough
// for every workload to move traffic, short enough for -race.
const smokeWindow = 2 * sim.Millisecond

// parentMetrics are the per-layer metrics the parent process derives
// by comparing children; a single in-process run does not produce them.
var parentMetrics = map[string]bool{
	"trace.overhead_ratio": true, "trace.identical": true,
	"shard.speedup_vs_serial": true, "shard.identical": true,
}

// scaled returns w with its simulated window shrunk to window (the
// smoke test's short runs) and a warm-up of a quarter of it. Grace is
// the whole window: so early in a run mice share start-up transients
// with the elephants, and only those opened during warm-up are given
// long enough to be held to finishing.
func (w workload) scaled(window sim.Time) workload {
	w.Warmup, w.Window, w.Grace = window/4, window, window
	return w
}

func smokeRun(t *testing.T, w workload, o runOpts) *runResult {
	t.Helper()
	o.Seed = 1
	res, err := runOnce(w.scaled(smokeWindow), o)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if len(res.Checks) > 0 {
		t.Errorf("%s: correctness checks failed: %v", w.Name, res.Checks)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d; want some attempted, none failed", w.Name, res.Attempted, res.Failed)
	}
	return res
}

// TestWorkloadsPassChecks runs every workload on a short window: the
// checks pass, no operation fails, and every end-to-end metric is
// reported and non-zero.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, w := range workloads {
		res := smokeRun(t, w, runOpts{})
		for _, def := range endToEnd {
			if v, ok := res.value(def); !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (reported: %v); want > 0", w.Name, def.Name, v, ok)
			}
		}
	}
}

// TestTracedRunMatchesUntraced runs every workload traced (spans,
// slices, tap, drivers): it must report every per-layer metric and
// simulate exactly what the untraced run — and, for the sharded
// workload, the serial engine — simulates.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs and replay drivers skipped in -short mode")
	}
	for _, w := range workloads {
		base := smokeRun(t, w, runOpts{})
		traced := smokeRun(t, w, runOpts{Trace: true})
		if !sameSim(base, traced) {
			t.Errorf("%s: traced run simulated something else than the untraced run", w.Name)
		}
		for _, def := range perLayer {
			if _, ok := traced.value(def); !ok && !parentMetrics[def.Name] {
				t.Errorf("%s: traced run did not report %s", w.Name, def.Name)
			}
		}
		if len(traced.Spans) < 5+windowSlices || traced.Spans[0].Name != "run" {
			t.Errorf("%s: traced run recorded %d spans", w.Name, len(traced.Spans))
		}
		if w.Shards > 1 {
			if serial := smokeRun(t, w, runOpts{Shards: 1}); !sameSim(base, serial) {
				t.Errorf("%s: %d shards simulated something else than the serial engine", w.Name, w.Shards)
			}
		}
	}
}

// TestCalibratorIsFixedWork pins what makes the calibration loop a
// yardstick: a chunk allocates nothing once warm (so it adds nothing to
// the allocation metrics and no work to the collector), and two loops
// do exactly the same work.
func TestCalibratorIsFixedWork(t *testing.T) {
	defer func(n int) { calibChunkEvents = n }(calibChunkEvents)
	calibChunkEvents = 15_000 // the benchmark's own
	a, b := newCalibrator(), newCalibrator()
	if n := testing.AllocsPerRun(5, func() { a.chunk() }); n != 0 {
		t.Errorf("a calibration chunk made %v allocations, want 0", n)
	}
	for i := 0; i < 6; i++ { // AllocsPerRun ran a's chunk 1+5 times
		b.chunk()
	}
	if a.x != b.x || a.seq != b.seq || a.events[0].at != b.events[0].at {
		t.Errorf("two calibration loops diverged: rng %d vs %d, seq %d vs %d", a.x, b.x, a.seq, b.seq)
	}
	// The stalled chunk and the lucky one are trimmed away.
	n := time.Duration(calibNominal)
	if s := slowdown([]time.Duration{40 * n, 2 * n, 2 * n, 2 * n, n / 10}); s != 2 {
		t.Errorf("slowdown of chunks taking twice the nominal time = %v, want 2", s)
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the tables
// the harness emits from, name for name, and to the contract's name
// and unit grammar.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(section string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", section, len(got), len(want))
		}
		for i, def := range want {
			name(def.Name)
			g := got[i]
			if !unitRE.MatchString(def.Unit) {
				t.Errorf("%s: unit %q is outside the grammar", def.Name, def.Unit)
			}
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has {%s %s %s}, the harness {%s %s %s}",
					section, i, g.Name, g.Unit, g.Better, def.Name, def.Unit, def.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", def.Name)
			case bounded && (g.Bound == nil || *g.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness; want equal and in (0, 0.25]", def.Name, g.Bound, def.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// TestSpecFilesValidate parses every spec file under workloads/ and
// checks the workloads reference exactly those files: one shared by
// the two elephant workloads, one for mice-churn.
func TestSpecFilesValidate(t *testing.T) {
	entries, err := specFiles.ReadDir("workloads")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]int{}
	for _, w := range workloads {
		if w.SpecFile != "" {
			used[w.SpecFile]++
		}
	}
	for _, e := range entries {
		data, err := specFiles.ReadFile("workloads/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		ws, err := wspec.Parse(data)
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if err := ws.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		if used[e.Name()] == 0 {
			t.Errorf("%s: no workload uses it", e.Name())
		}
	}
	if want := map[string]int{"elephants-mice.json": 2, "mice-churn.json": 1}; !reflect.DeepEqual(used, want) {
		t.Errorf("spec files in use: %v, want %v", used, want)
	}
}

// TestImportAllowlist keeps the harness off the packages ROADMAP
// schedules for deletion or merging, so later PRs cannot break a
// benchmark they are not allowed to edit.
func TestImportAllowlist(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"topo", "cluster", "workload/spec", "sim", "fabric", "nic", "gro", "tcp", "vswitch", "scheme", "packet", "metrics"} {
		allowed["presto/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			stdlib := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && path != "presto" && !strings.HasPrefix(path, "presto/")
			if !stdlib && !allowed[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's allowlist", file, path)
			}
		}
	}
}

// TestAgreeVerdicts feeds -agree two synthetic result sets.
func TestAgreeVerdicts(t *testing.T) {
	set := func(wall []float64, goodput float64, events float64) *workloadResult {
		r := &workloadResult{Workload: "w", Correct: true, Attempted: 1, EndToEnd: map[string]summary{}, Sim: map[string]float64{"sim.events": events}}
		for _, def := range endToEnd {
			samples := []float64{1, 1, 1}
			switch def.Name {
			case "wall_s":
				samples = wall
			case "goodput_gbps":
				samples = []float64{goodput, goodput, goodput}
			}
			r.EndToEnd[def.Name] = summarize(def, samples)
		}
		return r
	}
	write := func(r *workloadResult) string {
		dir := t.TempDir()
		if err := writeJSON(filepath.Join(dir, "w.json"), r); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	base := write(set([]float64{1.00, 1.01, 1.02}, 8, 100))
	for _, tc := range []struct {
		name    string
		b       *workloadResult
		agree   bool
		verdict string
	}{
		{"same", set([]float64{1.01, 1.02, 1.03}, 8, 100), true, "wall_s"},
		{"slower", set([]float64{1.50, 1.51, 1.52}, 8, 100), false, verdictRegressed},
		{"noisy", set([]float64{1.0, 1.5, 2.0}, 8, 100), true, verdictUnresolved},
		{"other results", set([]float64{1.00, 1.01, 1.02}, 7, 99), false, verdictDiffers},
	} {
		var out bytes.Buffer
		ok, err := agreeDirs(&out, base, write(tc.b))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.agree || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: agree = %v, want %v with %q in:\n%s", tc.name, ok, tc.agree, tc.verdict, out.String())
		}
	}
	other := set([]float64{1, 1, 1}, 8, 100)
	other.Provenance.Seed = 2
	if _, err := agreeDirs(&bytes.Buffer{}, base, write(other)); err == nil {
		t.Error("result sets of different seeds were compared, not refused")
	}
}
