package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"presto/internal/metrics"
	"presto/internal/telemetry"
)

// Envelope summarises one metric over a cell's successful seed
// replicas.
type Envelope struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// String renders "mean" for a single replica and "mean ±stddev
// [min,max]" for seed-replicated envelopes.
func (e Envelope) String() string {
	if e.N <= 1 {
		return strconv.FormatFloat(e.Mean, 'g', -1, 64)
	}
	return fmt.Sprintf("%g ±%.3g [%g,%g]", e.Mean, e.Stddev, e.Min, e.Max)
}

// aggregate folds the successful replicas' metrics into envelopes,
// iterating in seed order so float accumulation is deterministic.
func aggregate(reps []ReplicaResult) map[string]Envelope {
	vals := make(map[string][]float64)
	for _, r := range reps {
		if r.Err != "" {
			continue
		}
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	out := make(map[string]Envelope, len(vals))
	for k, xs := range vals {
		out[k] = envelope(xs)
	}
	return out
}

func envelope(xs []float64) Envelope {
	e := Envelope{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		e.Min = math.Min(e.Min, x)
		e.Max = math.Max(e.Max, x)
	}
	e.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - e.Mean
		ss += d * d
	}
	e.Stddev = math.Sqrt(ss / float64(len(xs)))
	return e
}

// mergeDists appends every successful replica's named samples in seed
// order into one distribution per name.
func mergeDists(reps []ReplicaResult, raw []Result) map[string]*metrics.Dist {
	out := make(map[string]*metrics.Dist)
	for i, r := range raw {
		if reps[i].Err == "" {
			addDists(out, r.Dists)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// addDists merges each non-empty distribution of src into dst under
// its name, allocating the entries dst lacks.
func addDists(dst, src map[string]*metrics.Dist) {
	for name, d := range src {
		if d == nil || d.N() == 0 {
			continue
		}
		acc := dst[name]
		if acc == nil {
			acc = &metrics.Dist{}
			dst[name] = acc
		}
		acc.Merge(d)
	}
}

// WriteJSON writes the report as indented JSON. encoding/json sorts
// map keys, and the report carries no timing, so the bytes depend only
// on the spec and seeds — not on parallelism.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes one row per (cell, metric) envelope, cells in spec
// order and metrics sorted, for spreadsheet-side analysis.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "cell", "metric", "mean", "stddev", "min", "max", "n"}); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range r.Cells {
		c := &r.Cells[i]
		names := make([]string, 0, len(c.Envelopes))
		for k := range c.Envelopes {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			e := c.Envelopes[k]
			err := cw.Write([]string{c.Experiment, c.ID, k, g(e.Mean), g(e.Stddev), g(e.Min), g(e.Max), strconv.Itoa(e.N)})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// CellTiming is one manifest entry of per-cell wall clock.
type CellTiming struct {
	Cell   string  `json:"cell"`
	WallMS float64 `json:"wall_ms"`
}

// Manifest is the machine-readable record of how a campaign was
// executed: spec identity, environment, timings, and failures. Unlike
// the report it is NOT byte-stable across runs — that is its job.
type Manifest struct {
	Name        string    `json:"name"`
	SpecHash    string    `json:"spec_hash"`
	GitDescribe string    `json:"git_describe,omitempty"`
	GoVersion   string    `json:"go_version"`
	Started     time.Time `json:"started"`
	WallMS      float64   `json:"wall_ms"`
	Workers     int       `json:"workers"`
	Seeds       []uint64  `json:"seeds"`
	Cells       int       `json:"cells"`
	// Workloads lists the distinct workload-spec hashes the campaign's
	// cells ran (sorted; absent when every cell uses code-defined
	// traffic). Together with SpecHash this pins exactly which declared
	// workloads produced the artifacts.
	Workloads   []string        `json:"workloads,omitempty"`
	Replicas    int             `json:"replicas"`
	Failed      []FailedReplica `json:"failed,omitempty"`
	Utilization float64         `json:"worker_utilization"`
	SlowestMS   []CellTiming    `json:"slowest_cells"`
}

// Manifest assembles the execution manifest; gitDescribe may be empty
// when the caller has no repository context.
func (r *Report) Manifest(gitDescribe string) *Manifest {
	t := r.timing
	m := &Manifest{
		Name:        r.Name,
		SpecHash:    r.SpecHash,
		GitDescribe: gitDescribe,
		GoVersion:   runtime.Version(),
		Seeds:       r.Seeds,
		Cells:       len(r.Cells),
		Failed:      r.FailedReplicas(),
	}
	seenWl := map[string]bool{}
	for i := range r.Cells {
		if wl := r.Cells[i].Workload; wl != "" && !seenWl[wl] {
			seenWl[wl] = true
			m.Workloads = append(m.Workloads, wl)
		}
	}
	sort.Strings(m.Workloads)
	if t != nil {
		t.mu.Lock()
		m.Started = t.started
		m.WallMS = float64(t.wall) / 1e6
		m.Workers = t.workers
		m.Replicas = t.total
		m.Utilization = t.utilization()
		for _, s := range t.slowest(5) {
			m.SlowestMS = append(m.SlowestMS, CellTiming{Cell: s.Key, WallMS: float64(s.Wall) / 1e6})
		}
		t.mu.Unlock()
	}
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteArtifacts writes report.json, report.csv, and manifest.json
// into dir, creating it as needed.
func (r *Report) WriteArtifacts(dir, gitDescribe string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := telemetry.WriteFile(filepath.Join(dir, "report.json"), r.WriteJSON); err != nil {
		return err
	}
	if err := telemetry.WriteFile(filepath.Join(dir, "report.csv"), r.WriteCSV); err != nil {
		return err
	}
	return telemetry.WriteFile(filepath.Join(dir, "manifest.json"), r.Manifest(gitDescribe).WriteJSON)
}

// GitDescribe is the repository state front-ends stamp manifests with;
// empty outside a git checkout.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
