package campaign

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"presto/internal/metrics"
)

// ReplicaResult is one cell × seed execution as recorded in the
// report. It deliberately carries no wall-clock timing — timings live
// in the Manifest — so report artifacts are byte-identical regardless
// of parallelism or machine speed.
type ReplicaResult struct {
	Seed    uint64 `json:"seed"`
	Metrics Values `json:"metrics,omitempty"`
	// Err is the failure (panic value, timeout, or returned error);
	// empty on success.
	Err string `json:"error,omitempty"`
}

// CellResult aggregates one cell's seed replicas.
type CellResult struct {
	Experiment string `json:"experiment"`
	ID         string `json:"id"`
	// Workload is the workload-spec hash the cell ran; see
	// Cell.Workload.
	Workload string          `json:"workload,omitempty"`
	Replicas []ReplicaResult `json:"replicas"`
	// Envelopes summarise each metric over the successful replicas.
	Envelopes map[string]Envelope `json:"envelopes,omitempty"`

	dists map[string]*metrics.Dist
}

// Failed reports whether any replica of the cell failed.
func (c *CellResult) Failed() bool {
	for _, r := range c.Replicas {
		if r.Err != "" {
			return true
		}
	}
	return false
}

// Dist returns the named sample distribution merged across the cell's
// successful replicas in seed order, or nil.
func (c *CellResult) Dist(name string) *metrics.Dist { return c.dists[name] }

// DistNames returns the cell's merged distribution names, sorted.
func (c *CellResult) DistNames() []string {
	names := make([]string, 0, len(c.dists))
	for n := range c.dists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FailedReplica identifies one failed cell × seed execution.
type FailedReplica struct {
	Cell string `json:"cell"`
	Seed uint64 `json:"seed"`
	Err  string `json:"error"`
}

// Report is a campaign's deterministic output: cells in spec order,
// replicas in seed order, independent of worker scheduling.
type Report struct {
	Name     string       `json:"name"`
	SpecHash string       `json:"spec_hash"`
	Seeds    []uint64     `json:"seeds"`
	Cells    []CellResult `json:"cells"`

	timing *timing // manifest-only: wall clocks and pool stats
}

// Cell returns the result for the given cell ID, or nil.
func (r *Report) Cell(id string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].ID == id {
			return &r.Cells[i]
		}
	}
	return nil
}

// Envelope returns the aggregate for (cell, metric); ok is false when
// either is absent.
func (r *Report) Envelope(cellID, metric string) (Envelope, bool) {
	c := r.Cell(cellID)
	if c == nil {
		return Envelope{}, false
	}
	e, ok := c.Envelopes[metric]
	return e, ok
}

// FailedReplicas lists every failed cell × seed, in spec order.
func (r *Report) FailedReplicas() []FailedReplica {
	var out []FailedReplica
	for i := range r.Cells {
		for _, rep := range r.Cells[i].Replicas {
			if rep.Err != "" {
				out = append(out, FailedReplica{Cell: r.Cells[i].ID, Seed: rep.Seed, Err: rep.Err})
			}
		}
	}
	return out
}

// timing is the execution-side record kept out of the report.
// syncWriter serializes everything written to the progress stream:
// worker-pool finish lines (already serialized by the timing lock),
// replica panic reports — which fire on the replica's own goroutine
// and, for an abandoned (timed-out or cancelled) replica, possibly
// after the pool has moved on — and the final summary line. Each
// fmt.Fprint* issues a single Write, so lines stay whole.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

type timing struct {
	mu          sync.Mutex
	started     time.Time
	wall        time.Duration
	busy        time.Duration // summed replica wall clocks
	workers     int
	total, done int
	failed      int
	replicaWall map[string]time.Duration // "cell seed=N" → wall
	cellWall    map[string]time.Duration // cell ID → summed wall
}

// Run executes the spec and returns its report. The only returned
// errors are spec errors; replica failures are recorded in the report
// (see Report.FailedReplicas) so sibling cells always complete.
func Run(spec *Spec) (*Report, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: when ctx is cancelled the pool
// stops dispatching, in-flight replicas are abandoned (each replica
// goroutine still drains into its buffered channel and exits once its
// RunFunc returns, so nothing leaks), and the call returns
// context.Cause(ctx) with a nil report. Callers distinguish a
// cancelled campaign from a failed one with errors.Is(err,
// context.Canceled) (or DeadlineExceeded).
func RunContext(ctx context.Context, spec *Spec) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	seeds := spec.seeds()
	workers := spec.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := len(spec.Cells) * len(seeds); workers > n {
		workers = n
	}

	// One serialized stream for all progress writers; see syncWriter.
	var progress io.Writer
	if spec.Progress != nil {
		progress = &syncWriter{w: spec.Progress}
	}

	tm := &timing{
		started:     time.Now(),
		workers:     workers,
		total:       len(spec.Cells) * len(seeds),
		replicaWall: make(map[string]time.Duration),
		cellWall:    make(map[string]time.Duration),
	}
	spec.Telemetry.Register("campaign", tm.probe)

	// results[cell][seed] — indexed writes keep ordering deterministic
	// no matter which worker finishes when.
	results := make([][]ReplicaResult, len(spec.Cells))
	raw := make([][]Result, len(spec.Cells))
	for i := range results {
		results[i] = make([]ReplicaResult, len(seeds))
		raw[i] = make([]Result, len(seeds))
	}

	type job struct{ ci, si int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the queue without running
				}
				cell := spec.Cells[j.ci]
				seed := seeds[j.si]
				start := time.Now()
				res, err := runReplica(ctx, cell, seed, spec.CellTimeout, progress)
				wall := time.Since(start)
				rr := ReplicaResult{Seed: seed, Metrics: res.Metrics}
				if err != nil {
					rr.Err = err.Error()
					rr.Metrics = nil
				}
				results[j.ci][j.si] = rr
				raw[j.ci][j.si] = res
				spec.Stats.observe(res, err)
				tm.finish(progress, cell.ID, seed, wall, err)
			}
		}()
	}
dispatch:
	for ci := range spec.Cells {
		for si := range seeds {
			select {
			case jobs <- job{ci, si}:
			case <-ctx.Done():
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	tm.mu.Lock()
	tm.wall = time.Since(tm.started)
	tm.mu.Unlock()

	rep := &Report{
		Name:     spec.Name,
		SpecHash: spec.Hash(),
		Seeds:    seeds,
		Cells:    make([]CellResult, len(spec.Cells)),
		timing:   tm,
	}
	for i, c := range spec.Cells {
		rep.Cells[i] = CellResult{
			Experiment: c.Experiment,
			ID:         c.ID,
			Workload:   c.Workload,
			Replicas:   results[i],
			Envelopes:  aggregate(results[i]),
			dists:      mergeDists(results[i], raw[i]),
		}
	}
	if progress != nil {
		fmt.Fprintf(progress, "[campaign] done: %d replicas (%d cells × %d seeds), %d failed, wall %v, workers=%d, utilization %.0f%%\n",
			tm.total, len(spec.Cells), len(seeds), tm.failed, tm.wall.Round(time.Millisecond), workers, tm.utilization()*100)
	}
	return rep, nil
}

// runReplica executes one cell × seed with panic capture, an optional
// wall-clock timeout, and cancellation. On timeout or cancel the
// replica's goroutine is abandoned: it cannot be preempted
// mid-simulation, so its eventual result (or panic) drains into a
// buffered channel — the goroutine exits on its own once RunFunc
// returns — and is dropped.
func runReplica(ctx context.Context, c Cell, seed uint64, timeout time.Duration, progress io.Writer) (Result, error) {
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				// The panic value alone is recorded (stable across runs);
				// the stack goes to the progress stream for debugging.
				if progress != nil {
					fmt.Fprintf(progress, "[campaign] panic in %s seed=%d: %v\n%s", c.ID, seed, p, debug.Stack())
				}
				ch <- outcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		res, err := c.Run(seed)
		ch <- outcome{res: res, err: err}
	}()
	var timeoutCh <-chan time.Time // nil (never fires) when no timeout
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timeoutCh:
		return Result{}, fmt.Errorf("timeout after %v (replica abandoned)", timeout)
	case <-ctx.Done():
		return Result{}, fmt.Errorf("cancelled: %w", context.Cause(ctx))
	}
}

// finish updates the pool counters and streams one progress line.
func (t *timing) finish(progress io.Writer, cellID string, seed uint64, wall time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.busy += wall
	key := fmt.Sprintf("%s seed=%d", cellID, seed)
	t.replicaWall[key] = wall
	t.cellWall[cellID] += wall
	status := "ok  "
	if err != nil {
		t.failed++
		status = "FAIL"
	}
	if progress == nil {
		return
	}
	line := fmt.Sprintf("[campaign] %*d/%d %s %s (%v)", len(fmt.Sprint(t.total)), t.done, t.total, status, key, wall.Round(time.Millisecond))
	if err != nil {
		line += ": " + err.Error()
	}
	fmt.Fprintln(progress, line)
}

// utilization is busy worker time over wall × workers; callers hold no
// lock (reads are post-Wait or under probe lock).
func (t *timing) utilization() float64 {
	wall := t.wall
	if wall == 0 {
		wall = time.Since(t.started)
	}
	if wall <= 0 || t.workers == 0 {
		return 0
	}
	u := float64(t.busy) / (float64(wall) * float64(t.workers))
	if u > 1 {
		u = 1
	}
	return u
}

// slowest returns the n largest replica wall clocks, descending.
func (t *timing) slowest(n int) []struct {
	Key  string
	Wall time.Duration
} {
	type kv struct {
		Key  string
		Wall time.Duration
	}
	all := make([]kv, 0, len(t.replicaWall))
	for k, v := range t.replicaWall {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Wall != all[j].Wall {
			return all[i].Wall > all[j].Wall
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]struct {
		Key  string
		Wall time.Duration
	}, len(all))
	for i, e := range all {
		out[i] = struct {
			Key  string
			Wall time.Duration
		}{e.Key, e.Wall}
	}
	return out
}

// probe reports the campaign's execution state to the telemetry
// registry ("campaign" component).
func (t *timing) probe() map[string]any {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]any{
		"replicas_total":  t.total,
		"replicas_done":   t.done,
		"replicas_failed": t.failed,
		"workers":         t.workers,
		"busy_ms":         float64(t.busy) / 1e6,
		"utilization":     t.utilization(),
	}
	for i, s := range t.slowest(3) {
		m[fmt.Sprintf("slowest.%d", i+1)] = fmt.Sprintf("%s (%v)", s.Key, s.Wall.Round(time.Millisecond))
	}
	return m
}
