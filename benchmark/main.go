// Command benchmark is the repository's whole-stack host-cost
// benchmark: four named workloads run end to end through
// internal/cluster, their end-to-end metrics printed by name with
// units, their simulated outputs checked, and — in a separate traced
// run — their cost attributed to each simulator layer from outside,
// through public counters, sliced Run calls and replay drivers.
//
//	go run ./benchmark                          every workload, end-to-end metrics
//	go run ./benchmark -trace 1                 every workload, per-layer metrics + span files
//	go run ./benchmark -workload mice-churn     one workload
//	go run ./benchmark -agree DIR_A DIR_B       compare two result sets
//
// See README.md in this directory for every metric and workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
)

// Each child runs with this many threads: the sharded workload uses 2
// shards and nothing uses more.
const childProcs = 2

// maxReps caps the repetitions of one invocation so a slow machine
// still finishes inside the driver's per-run limit.
const maxReps = 12

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all)")
		seed         = flag.Uint64("seed", 1, "workload seed: the generated traffic is a function of it alone")
		seconds      = flag.Float64("seconds", 20, "repeat each workload until its measured windows add up to this many host seconds")
		reps         = flag.Int("reps", 3, "minimum repetitions per workload")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and one span file per workload")
		out          = flag.String("out", ".bench_out", "directory for result and trace files")
		agree        = flag.String("agree", "", "compare result set `A` (a directory written by -out) with the one named by the next argument")
		child        = flag.Bool("child", false, "internal: run one repetition in this process and print its result")
		tapHost      = flag.Int("tap-host", 0, "internal: host whose arrivals a traced child captures")
		shards       = flag.Int("shards", 0, "internal: override the workload's shard count")
	)
	flag.Parse()

	if *agree != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -agree DIR_A DIR_B"))
		}
		ok, err := agreeDirs(os.Stdout, *agree, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}

	if *child {
		res, err := runOnce(selected[0], runOpts{Seed: *seed, Shards: *shards, Trace: *trace == 1, TapHost: *tapHost})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	final := map[string]report{}
	for _, w := range selected {
		p := plan{w: w, seed: *seed, seconds: *seconds, minReps: *reps, out: *out}
		var res *workloadResult
		var err error
		if *trace == 1 {
			res, err = p.traced()
		} else {
			res, err = p.untraced()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		if err := writeJSON(filepath.Join(*out, w.Name+".json"), res); err != nil {
			fatal(err)
		}
		final[w.Name] = res.print(*trace == 1)
	}
	// The last line is one JSON document: the driver's result object
	// for a single workload, or one such object per workload.
	var doc any = final
	if len(selected) == 1 {
		doc = final[selected[0].Name]
	}
	if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// provenance records the settings a result set was produced with, so
// -agree can refuse to compare sets that were not produced alike.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	SpecHash   string  `json:"spec_hash"`
	Shards     int     `json:"shards"`
	WarmupMs   float64 `json:"warmup_ms"`
	WindowMs   float64 `json:"window_ms"`
	Traced     bool    `json:"traced"`
	Reps       int     `json:"repetitions"`
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one (a plain checkout without .git records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// workloadResult is one workload's result file.
type workloadResult struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Checks     []string           `json:"checks,omitempty"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	// AsRead holds the host times as the clock read them, before the machine's
	// slowdown was divided out, and the slowdown itself.
	AsRead   map[string]summary `json:"as_read"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
	// Sim is the run's full set of exact simulated statistics, the
	// fingerprint -agree compares bit-for-bit.
	Sim map[string]float64 `json:"sim"`
}

// report is the object the benchmark driver reads from the last
// line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one "workload metric value unit" line per metric to
// standard output and returns the driver's result object: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *workloadResult) print(traced bool) report {
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer, r.PerLayer
	}
	d := report{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]reportValue{}}
	line := func(name string, v float64, unit string) {
		fmt.Printf("%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	for _, def := range defs {
		v := values[def.Name]
		line(def.Name, v.Value, v.Unit)
		d.Metrics[def.Name] = reportValue{Value: v.Value, Unit: v.Unit}
	}
	if !traced {
		for _, def := range asRead {
			line(def.Name, r.AsRead[def.Name].Value, def.Unit)
		}
		if r.Sim["spec.fct_samples"] > 0 {
			line("fct_p99_ms", r.Sim["spec.fct_p99_ms"], "ms")
		}
		line("failed_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	return d
}

// plan is one workload's measurement: which children to run and how
// to fold their reports into a workloadResult.
type plan struct {
	w       workload
	seed    uint64
	seconds float64
	minReps int
	out     string
}

// child runs one repetition in a fresh process, so peak RSS, heap
// state and GC history belong to that repetition alone.
func (p plan) child(o runOpts) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", p.w.Name, "-seed", strconv.FormatUint(o.Seed, 10)}
	if o.Trace {
		args = append(args, "-trace", "1", "-tap-host", strconv.Itoa(o.TapHost))
	}
	if o.Shards > 0 {
		args = append(args, "-shards", strconv.Itoa(o.Shards))
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
		return nil, fmt.Errorf("child %v: decoding result: %w", args, err)
	}
	return res, nil
}

// result starts a workloadResult from the first repetition's report.
func (p plan) result(first *runResult, traced bool, reps int) *workloadResult {
	return &workloadResult{
		Provenance: provenance{
			Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs,
			Seed: p.seed, SpecHash: first.SpecHash, Shards: first.Shards,
			WarmupMs: p.w.Warmup.Milliseconds(), WindowMs: p.w.Window.Milliseconds(),
			Traced: traced, Reps: reps,
		},
		Workload:  p.w.Name,
		Attempted: first.Attempted,
		Failed:    first.Failed,
		Checks:    first.Checks,
		EndToEnd:  map[string]summary{},
		AsRead:    map[string]summary{},
		Sim:       first.Sim,
	}
}

// sameSim reports whether two repetitions simulated exactly the same
// thing: every exact statistic and the operation counts.
func sameSim(a, b *runResult) bool {
	return reflect.DeepEqual(a.Sim, b.Sim) && a.Attempted == b.Attempted && a.Failed == b.Failed
}

// untraced repeats the workload until its measured windows add up to
// p.seconds (at least p.minReps times) and reports each end-to-end
// metric's median, min, max and count over the repetitions.
func (p plan) untraced() (*workloadResult, error) {
	var reps []*runResult
	for measured := 0.0; len(reps) < maxReps && (len(reps) < p.minReps || measured < p.seconds); {
		fmt.Fprintf(os.Stderr, "%s: repetition %d\n", p.w.Name, len(reps)+1)
		r, err := p.child(runOpts{Seed: p.seed})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		measured += r.Host["wall_raw_s"]
	}
	res := p.result(reps[0], false, len(reps))
	for i, r := range reps[1:] {
		if !sameSim(reps[0], r) {
			res.Checks = append(res.Checks, fmt.Sprintf("repetition %d simulated something else than repetition 1 (same seed)", i+2))
		}
	}
	p.fillEndToEnd(res, reps)
	res.finish()
	return res, nil
}

func (p plan) fillEndToEnd(res *workloadResult, reps []*runResult) {
	fill := func(into map[string]summary, defs []metricDef) {
		for _, def := range defs {
			samples := make([]float64, len(reps))
			for i, r := range reps {
				samples[i], _ = r.value(def)
			}
			into[def.Name] = summarize(def, samples)
		}
	}
	fill(res.EndToEnd, endToEnd)
	fill(res.AsRead, asRead)
}

// finish settles correctness once every check has had its say.
func (r *workloadResult) finish() {
	r.Correct = len(r.Checks) == 0
	if !r.Correct {
		r.Failed = r.Attempted
	}
}

// traced runs the workload untraced once (the baseline the traced
// run's overhead and statistics are held against), then traced with
// the busiest receiver tapped, then — for a sharded workload — once
// more on the serial engine, and reports every per-layer metric.
func (p plan) traced() (*workloadResult, error) {
	fmt.Fprintf(os.Stderr, "%s: untraced baseline\n", p.w.Name)
	base, err := p.child(runOpts{Seed: p.seed})
	if err != nil {
		return nil, err
	}
	busiest := 0
	for h, n := range base.RxByHost {
		if n > base.RxByHost[busiest] {
			busiest = h
		}
	}
	fmt.Fprintf(os.Stderr, "%s: traced run, tapping host %d\n", p.w.Name, busiest)
	tr, err := p.child(runOpts{Seed: p.seed, Trace: true, TapHost: busiest})
	if err != nil {
		return nil, err
	}
	res := p.result(base, true, 1)
	p.fillEndToEnd(res, []*runResult{base})

	// Per-layer values: host and driver timings from the traced child,
	// exact statistics from the untraced baseline, verdicts from
	// comparing the children. The verdicts join the statistics only
	// after the comparisons, which read the same map.
	layers := &runResult{Host: tr.Host, Sim: base.Sim}
	verdicts := map[string]float64{"trace.identical": 1, "shard.identical": 1}
	if !sameSim(base, tr) {
		verdicts["trace.identical"] = 0
		res.Checks = append(res.Checks, "traced run's simulated statistics differ from the untraced run's")
	}
	layers.Host["trace.overhead_ratio"] = tr.Host["wall_s"] / base.Host["wall_s"]
	layers.Host["shard.speedup_vs_serial"] = 1
	if base.Shards > 1 {
		fmt.Fprintf(os.Stderr, "%s: same input on the serial engine\n", p.w.Name)
		serial, err := p.child(runOpts{Seed: p.seed, Shards: 1})
		if err != nil {
			return nil, err
		}
		layers.Host["shard.speedup_vs_serial"] = serial.Host["wall_s"] / base.Host["wall_s"]
		if !sameSim(base, serial) {
			verdicts["shard.identical"] = 0
			res.Checks = append(res.Checks, fmt.Sprintf("%d-shard run's simulated statistics differ from the serial run's", base.Shards))
		}
	}
	for name, v := range verdicts {
		layers.Sim[name] = v
	}

	res.PerLayer = map[string]summary{}
	for _, def := range perLayer {
		v, _ := layers.value(def)
		res.PerLayer[def.Name] = summarize(def, []float64{v})
	}
	res.finish()
	return res, writeJSON(filepath.Join(p.out, p.w.Name+".trace.json"), tr.Spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
