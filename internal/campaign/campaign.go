// Package campaign executes declarative experiment campaigns: a grid
// of cells (experiment × parameter point) × N seeds fanned out over a
// bounded worker pool, with per-replica panic capture and wall-clock
// timeouts. Seed replicas are aggregated into per-metric
// mean/stddev/min–max envelopes, exported as machine-readable JSON and
// CSV artifacts plus a run manifest, and optionally gated against
// golden envelopes checked into the repository (see gate.go).
//
// Result ordering is fully determined by the spec — cell order × seed
// order — never by worker scheduling, so the aggregated artifacts of a
// campaign are byte-identical at any parallelism level.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"time"

	"presto/internal/metrics"
	"presto/internal/telemetry"
)

// Values maps metric names to scalar measurements for one replica.
type Values map[string]float64

// Result is what one replica (one cell at one seed) produces: scalar
// metrics, aggregated into envelopes across seeds, and optional named
// sample distributions, merged across seeds (for CDF export).
type Result struct {
	Metrics Values
	Dists   map[string]*metrics.Dist
}

// RunFunc executes one replica of a cell. It must be self-contained:
// every invocation builds its own engine state from the seed, shares
// nothing with sibling replicas, and is safe to run concurrently with
// them.
type RunFunc func(seed uint64) (Result, error)

// Cell is one point of the campaign grid.
type Cell struct {
	// Experiment groups cells for rendering ("fig7", "table1", ...).
	Experiment string
	// ID uniquely names the cell within the spec, conventionally
	// "<experiment>/<param>=<value>/..."; it keys golden envelopes and
	// artifact rows, so it must be stable across runs.
	ID string
	// Workload is the workload-spec hash (spec.Spec.Hash) the cell's
	// traffic was compiled from. It is folded into Spec.Hash and
	// recorded in the report and manifest, so artifacts (and any future
	// result cache) key on the exact workload.
	Workload string
	// Run executes the cell at one seed.
	Run RunFunc
}

// Spec is a declarative campaign: the cell grid, the seeds to
// replicate each cell over, and the execution envelope.
type Spec struct {
	Name  string
	Cells []Cell
	// Seeds are run per cell, in order. Empty defaults to {1}.
	Seeds []uint64
	// Params are extra spec-identity entries (durations, workload
	// knobs) folded into Hash so a golden envelope can detect being
	// compared against a differently-parameterised run.
	Params map[string]string

	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int
	// CellTimeout is the wall-clock budget per replica; a replica that
	// exceeds it is recorded as failed and abandoned (its goroutine's
	// eventual result is discarded). <= 0 disables the timeout.
	CellTimeout time.Duration
	// Progress, when non-nil, receives one line per completed replica
	// plus a summary line. It is written to from worker goroutines
	// under an internal lock.
	Progress io.Writer
	// Telemetry, when non-nil, gets a "campaign" probe (replicas
	// completed/failed, worker utilization, slowest replicas).
	Telemetry *telemetry.Registry
	// Stats, when non-nil, counts replicas as they finish and
	// accumulates the successful ones' distributions, for live progress
	// and percentile reporting (see LiveStats).
	Stats *LiveStats
}

// Seeds returns n consecutive seeds starting at base — the common
// replication pattern.
func Seeds(base uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// seeds returns the spec's effective seed list.
func (s *Spec) seeds() []uint64 {
	if len(s.Seeds) == 0 {
		return []uint64{1}
	}
	return s.Seeds
}

// Hash fingerprints the spec's result-determining identity — name,
// cell IDs, seeds, and params — excluding execution knobs
// (parallelism, timeout) that cannot change results. Golden envelopes
// record it to refuse comparison against a different spec.
func (s *Spec) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "campaign/v1\nname=%s\nseeds=%v\n", s.Name, s.seeds())
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "param:%s=%s\n", k, s.Params[k])
	}
	for _, c := range s.Cells {
		fmt.Fprintf(h, "cell=%s workload=%s\n", c.ID, c.Workload)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// validate rejects specs the runner cannot execute deterministically.
func (s *Spec) validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("campaign %q: no cells", s.Name)
	}
	seen := make(map[string]bool, len(s.Cells))
	for _, c := range s.Cells {
		if c.ID == "" {
			return fmt.Errorf("campaign %q: cell with empty ID", s.Name)
		}
		if seen[c.ID] {
			return fmt.Errorf("campaign %q: duplicate cell ID %q", s.Name, c.ID)
		}
		if c.Run == nil {
			return fmt.Errorf("campaign %q: cell %q has no Run", s.Name, c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}
