// Command prestobench runs the repository's hot-path microbenchmark
// suite (internal/bench) outside `go test` and writes a
// machine-readable BENCH_*.json perf artifact:
//
//	go run ./cmd/prestobench -out BENCH_fresh.json
//
// Each record carries ns/op, allocs/op, B/op, and any b.ReportMetric
// extras. With -gate it additionally compares allocs/op against a
// committed baseline (BENCH_0.json) and exits non-zero when a gated
// benchmark regressed by more than -gate-threshold-pct (default 20%) —
// the CI bench-smoke job. ns/op is recorded for the trajectory but
// never gated: shared CI runners make wall-time thresholds flaky,
// while allocation counts are deterministic.
//
// The BENCH_*.json schema ("presto-bench/1"):
//
//	{
//	  "schema": "presto-bench/1",
//	  "go": "go1.x",              // toolchain that produced the numbers
//	  "short": false,             // reduced end-to-end windows?
//	  "benchmarks": [
//	    {"name": "...", "iterations": N, "ns_per_op": f,
//	     "allocs_per_op": n, "bytes_per_op": n, "gated": bool,
//	     "extra": {"Gbps": f, ...}},        // optional
//	  ],
//	  "before": {...}             // optional: pre-optimization numbers,
//	}                             // kept for historical comparison only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	presto "presto"
	"presto/internal/bench"
	"presto/internal/sim"
)

// Record is one benchmark's measurement in the JSON artifact.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Gated       bool               `json:"gated"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Artifact is the BENCH_*.json file ("presto-bench/1" schema).
type Artifact struct {
	Schema     string   `json:"schema"`
	Go         string   `json:"go"`
	Short      bool     `json:"short"`
	Benchmarks []Record `json:"benchmarks"`
	// Before optionally preserves pre-optimization measurements for the
	// historical record; the gate ignores it.
	Before map[string]Record `json:"before,omitempty"`
}

const schema = "presto-bench/1"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prestobench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("prestobench", flag.ContinueOnError)
	short := fs.Bool("short", false, "reduce end-to-end benchmark windows (CI smoke mode)")
	out := fs.String("out", "", "write the presto-bench/1 JSON artifact to this path")
	gate := fs.String("gate", "", "compare gated benchmarks' allocs/op against this baseline JSON; exit non-zero on regression")
	threshold := fs.Float64("gate-threshold-pct", 20, "allowed allocs/op regression over the baseline, percent")
	filter := fs.String("run", "", "only run benchmarks whose name contains this substring")
	speedupFloor := fs.Float64("speedup-floor", 0, "require the sharded pod-scale run to be at least this multiple faster than serial (0 = off); bit-identity is verified either way")
	speedupMinCPUs := fs.Int("speedup-min-cpus", 8, "skip the speedup ratio check (not the identity check) on machines with fewer CPUs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	bench.Short = *short
	art := Artifact{Schema: schema, Go: runtime.Version(), Short: *short}
	for _, spec := range bench.Suite() {
		if *filter != "" && !strings.Contains(spec.Name, *filter) {
			continue
		}
		r := testing.Benchmark(spec.Fn)
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed (zero iterations)", spec.Name)
		}
		rec := Record{
			Name:        spec.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Gated:       spec.Gated,
		}
		if len(r.Extra) > 0 {
			rec.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				rec.Extra[k] = v
			}
		}
		art.Benchmarks = append(art.Benchmarks, rec)
		fmt.Fprintf(stdout, "%-24s %12.1f ns/op %8d B/op %6d allocs/op\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
	}
	if len(art.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks matched -run %q", *filter)
	}

	if *out != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if *gate != "" {
		if err := gateAgainst(stdout, art, *gate, *threshold); err != nil {
			return err
		}
	}
	if *speedupFloor > 0 {
		return speedupGate(stdout, *speedupFloor, *speedupMinCPUs)
	}
	return nil
}

// speedupGate runs the pod-scale workload serial and sharded and fails
// when the sharded engine is less than floor× faster. Bit-identity
// between the two runs is checked unconditionally — divergence is a
// correctness bug regardless of hardware. The wall-clock ratio is only
// enforced when the machine has at least minCPUs CPUs: with fewer
// cores than shards the barriers cost wall time and no speedup is
// physically possible (e.g. single-core CI runners).
func speedupGate(stdout io.Writer, floor float64, minCPUs int) error {
	pods, hostsPerLeaf, shards := 8, 2, 8
	warmup, duration := bench.SpeedupWindow()
	s := measureShardSpeedup(pods, hostsPerLeaf, shards, warmup, duration)
	if !s.Identical {
		return fmt.Errorf("speedup gate: %d-shard run diverged from serial — the bit-identity contract is broken", s.Shards)
	}
	if runtime.NumCPU() < minCPUs {
		fmt.Fprintf(stdout, "speedup gate skipped: %d CPUs < %d (bit-identity verified: serial %v, sharded %v)\n",
			runtime.NumCPU(), minCPUs, s.Serial.Round(time.Millisecond), s.Sharded.Round(time.Millisecond))
		return nil
	}
	ratio := float64(s.Serial) / float64(s.Sharded)
	if ratio < floor {
		return fmt.Errorf("speedup gate: %d shards ran %.2fx faster than serial, floor is %.2fx (serial %v, sharded %v)",
			s.Shards, ratio, floor, s.Serial.Round(time.Millisecond), s.Sharded.Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "speedup gate passed: %d shards %.2fx faster than serial (floor %.2fx, serial %v, sharded %v)\n",
		s.Shards, ratio, floor, s.Serial.Round(time.Millisecond), s.Sharded.Round(time.Millisecond))
	return nil
}

// shardSpeedup is one serial-vs-sharded wall-clock comparison of the
// pod-scale workload, plus whether the two runs were bit-identical
// (they must be: that is the sharded engine's core contract).
type shardSpeedup struct {
	Shards          int
	Serial, Sharded time.Duration
	Identical       bool
}

// measureShardSpeedup runs the pod-scale workload once on the serial
// engine and once under `shards` shards, timing both. Wall-clock
// reads live here rather than internal/bench because the harness
// layer is exempt from the simclock analyzer and simulator packages
// are not.
func measureShardSpeedup(pods, hostsPerLeaf, shards int, warmup, duration sim.Time) shardSpeedup {
	opt := presto.Options{Seed: 1, Warmup: warmup, Duration: duration}
	cell := presto.PodCell(presto.SysPresto, pods, hostsPerLeaf)
	t0 := time.Now()
	serial, errSerial := cell.Run(opt)
	t1 := time.Now()
	opt.Shards = shards
	sharded, errSharded := cell.Run(opt)
	t2 := time.Now()
	return shardSpeedup{
		Shards:  sharded.Shards,
		Serial:  t1.Sub(t0),
		Sharded: t2.Sub(t1),
		Identical: errSerial == nil && errSharded == nil &&
			serial.Delivered == sharded.Delivered && reflect.DeepEqual(serial.Metrics, sharded.Metrics),
	}
}

// gateAgainst fails when any gated benchmark's allocs/op exceeds the
// baseline's by more than thresholdPct. A baseline of 0 allocs/op is a
// hard invariant: any allocation at all is a regression.
func gateAgainst(stdout io.Writer, fresh Artifact, baselinePath string, thresholdPct float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Artifact
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	if base.Schema != schema {
		return fmt.Errorf("baseline %s has schema %q, want %q", baselinePath, base.Schema, schema)
	}
	byName := make(map[string]Record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	var regressions []string
	compared := 0
	for _, r := range fresh.Benchmarks {
		if !r.Gated {
			continue
		}
		b, ok := byName[r.Name]
		if !ok {
			continue // new benchmark: no baseline yet, next BENCH_N picks it up
		}
		compared++
		limit := float64(b.AllocsPerOp) * (1 + thresholdPct/100)
		if float64(r.AllocsPerOp) > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (limit %.1f)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, limit))
		}
	}
	if compared == 0 {
		return fmt.Errorf("gate compared zero benchmarks against %s", baselinePath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("allocs/op regression vs %s:\n  %s",
			baselinePath, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(stdout, "perf gate passed: %d gated benchmarks within %.0f%% of %s\n",
		compared, thresholdPct, baselinePath)
	return nil
}
