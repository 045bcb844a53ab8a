package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"presto/internal/metrics"
	"presto/internal/sim"
)

// ProbeFunc reports a component's current state as a flat (or
// one-level-nested) map of JSON-marshalable values. Probes run only
// when a snapshot is taken, so they may compute derived values.
type ProbeFunc func() map[string]any

// Registry is the central collection point for per-component probes
// and the (optional) event tracer. A nil *Registry disables the whole
// layer: every method is a nil-receiver-safe no-op.
//
// Registration and snapshots are safe for concurrent use: the
// campaign runner registers its probe from a worker goroutine while
// prestod's HTTP handlers snapshot live progress. Probe functions run
// under the registry lock and must not call back into it.
type Registry struct {
	mu     sync.Mutex
	tracer *Tracer
	names  []string
	probes map[string]ProbeFunc
	runs   int
	// open lists the probes registered since BeginRun while the run is
	// open (inRun); EndRun freezes them.
	open  []string
	inRun bool
}

// NewRegistry returns a registry carrying tr (which may be nil when
// only snapshots are wanted).
func NewRegistry(tr *Tracer) *Registry {
	return &Registry{tracer: tr, probes: make(map[string]ProbeFunc)}
}

// Tracer returns the registry's tracer (nil when disabled or when the
// registry itself is nil).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// BeginRun opens a new run scope, ending any still open: probes
// registered until EndRun belong to the run, and traced events are
// stamped with its ID. The first run's probes keep bare names; later
// runs get a "run<N>/" prefix so repeated builds on one registry
// (cmd/experiments -run all) do not collide. Returns the run's prefix.
func (r *Registry) BeginRun(label string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endRun()
	r.inRun = true
	r.tracer.BeginRun(label)
	r.runs++
	if r.runs == 1 {
		return ""
	}
	return fmt.Sprintf("run%d/", r.runs-1)
}

// EndRun closes the run scope BeginRun opened: each probe the run
// registered is evaluated once and replaced by its final values, and
// the tracer collects the run's shard buffers, so the registry no
// longer holds on to the finished run's components.
func (r *Registry) EndRun() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endRun()
}

func (r *Registry) endRun() {
	for _, name := range r.open {
		final := r.probes[name]()
		r.probes[name] = func() map[string]any { return final }
	}
	r.open, r.inRun = nil, false
	r.tracer.endRun()
}

// Register adds a named probe. Re-registering a name replaces it.
// Between BeginRun and EndRun the probe belongs to the run.
func (r *Registry) Register(name string, fn ProbeFunc) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.probes[name]; !dup {
		r.names = append(r.names, name)
	}
	r.probes[name] = fn
	if r.inRun {
		r.open = append(r.open, name)
	}
}

// Snapshot is a point-in-time JSON document of every registered
// probe's state — the run's "black box recorder" dump.
type Snapshot struct {
	TakenAtNs  int64                     `json:"taken_at_ns"`
	Components map[string]map[string]any `json:"components"`
}

// Snapshot runs every probe and collects the results. Returns nil on a
// nil registry.
func (r *Registry) Snapshot(now sim.Time) *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{TakenAtNs: int64(now), Components: make(map[string]map[string]any, len(r.names))}
	for _, name := range r.names {
		s.Components[name] = r.probes[name]()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (encoding/json sorts
// map keys, so output is deterministic).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Summary renders the snapshot as an aligned three-column table
// (component, metric, value) with nested maps flattened into dotted
// keys — the -v output of the CLIs. Rendering is deterministic:
// component names and flattened metric keys are collected and sorted
// before any row is written, so map iteration order never reaches the
// output.
func (s *Snapshot) Summary() string {
	if s == nil {
		return "(no telemetry)\n"
	}
	tbl := &metrics.Table{Header: []string{"component", "metric", "value"}}
	comps := make([]string, 0, len(s.Components))
	for name := range s.Components {
		comps = append(comps, name)
	}
	sort.Strings(comps)
	for _, name := range comps {
		flat := map[string]any{}
		flatten("", s.Components[name], flat)
		keys := make([]string, 0, len(flat))
		for k := range flat {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			tbl.AddRow(name, k, formatValue(flat[k]))
		}
	}
	return tbl.String()
}

// flatten expands nested map values into dotted keys. It writes into
// another map, which is order-insensitive; Summary sorts the flattened
// keys before rendering.
func flatten(prefix string, m map[string]any, out map[string]any) {
	for k, v := range m {
		key := k
		if prefix != "" {
			key = prefix + "." + k
		}
		if sub, ok := v.(map[string]any); ok {
			flatten(key, sub, out)
			continue
		}
		if sub, ok := v.(map[string]uint64); ok {
			for kk, vv := range sub {
				out[key+"."+kk] = vv
			}
			continue
		}
		out[key] = v
	}
}

func formatValue(v any) string {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%.4g", x)
	case string:
		return x
	default:
		return strings.TrimSpace(fmt.Sprintf("%v", x))
	}
}
