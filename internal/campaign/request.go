package campaign

import (
	"encoding/json"
	"flag"
	"slices"
	"time"

	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// DefaultCellTimeout is the wall-clock budget per replica the front
// doors start from: the -timeout default of the CLIs and the
// -cell-timeout default of prestod.
const DefaultCellTimeout = 5 * time.Minute

// DefaultWarmup and DefaultDuration are the simulated per-run windows
// a zero Warmup or Duration means, in a Request and in presto.Options.
const (
	DefaultWarmup   = 50 * sim.Millisecond
	DefaultDuration = 200 * sim.Millisecond
)

// Request is the one description of what to run. It is the JSON body
// prestod decodes and prestoctl sends (POST /v1/jobs), and the struct
// the CLIs bind their flags to (Bind); presto.Campaign is the only
// place that turns it into a Spec, so the same request yields the same
// spec hash and byte-identical artifacts through every front door.
//
// One defaults rule: the zero value of a field means its default —
// seed 1, one seed replica, GOMAXPROCS workers, a 200 ms window after
// a 50 ms warmup, the serial engine (WithDefaults). CellTimeout is the
// exception a daemon needs: zero means no budget, the CLIs' -timeout
// flag defaults to DefaultCellTimeout, and prestod substitutes its
// -cell-timeout for zero.
type Request struct {
	// Experiments selects paper experiments: "all" or a comma-separated
	// list of IDs (fig1, fig5, ..., table1, table2, ablations). Exactly
	// one of Experiments and Workload must be set.
	Experiments string `json:"experiments,omitempty"`
	// Workload runs a declarative workload spec across the system
	// lineup instead: an inline presto-workload/1 object, or a quoted
	// string naming a preset (elephants, mice-heavy, incast32, ...) or a
	// spec file the executing process can read. The spec's hash lands
	// in the report cells and manifest.
	Workload json.RawMessage `json:"workload,omitempty"`
	// Scheme is a comma-separated list of systems, each a paper name
	// (ecmp, mptcp, presto, optimal, flowlet100, flowlet500,
	// presto-ecmp, per-packet) or a scheme registry spec (name,
	// optionally name:k=v e.g. "diffflow:threshold=512KB"). With
	// Workload it replaces the default §4 lineup; with Experiments
	// "scheme-matrix" it restricts the matrix grid. It is an error with
	// any other Experiments selection but "podtraffic", whose systems
	// it replaces (default ECMP and Presto).
	Scheme string `json:"scheme,omitempty"`
	// Topology is the podtraffic row's fabric, a topology spec
	// (topo.ParseSpec) defaulting to "clos3"; any other selection refuses it.
	Topology string `json:"topology,omitempty"`
	// Seed is the base random seed; replicas use seed, seed+1, ...
	Seed uint64 `json:"seed,omitempty"`
	// Seeds is the number of seed replicas per cell.
	Seeds int `json:"seeds,omitempty"`
	// Parallelism bounds the worker pool; 0 means GOMAXPROCS. Results
	// are byte-identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`
	// CellTimeout is the wall-clock budget per replica (0 = none).
	CellTimeout wspec.Duration `json:"cell_timeout,omitempty"`
	// Duration and Warmup are the per-run simulated windows.
	Duration wspec.Duration `json:"duration,omitempty"`
	Warmup   wspec.Duration `json:"warmup,omitempty"`
	// Shards is the per-pod engine shard count for shardable cells
	// (podtraffic and workload cells); results are bit-identical at any
	// count, and a workload that cannot shard is a request error.
	Shards int `json:"shards,omitempty"`
}

// WithDefaults returns the request with every zero field replaced by
// its default (see Request).
func (r Request) WithDefaults() Request {
	if r.Seed == 0 {
		r.Seed = 1
	}
	r.Seeds = max(r.Seeds, 1)
	r.Shards = max(r.Shards, 1)
	if r.Duration == 0 {
		r.Duration = wspec.Duration(DefaultDuration)
	}
	if r.Warmup == 0 {
		r.Warmup = wspec.Duration(DefaultWarmup)
	}
	return r
}

// Bind registers the request's flags on fs — the named ones, or all
// eleven when none are named — under the names, defaults and usage
// strings every CLI shares. Fields set before the call become that
// flag's default (experiments' -run all, capture's 50 ms window).
func (r *Request) Bind(fs *flag.FlagSet, names ...string) {
	*r = r.WithDefaults()
	if r.CellTimeout == 0 && (len(names) == 0 || slices.Contains(names, "timeout")) {
		r.CellTimeout = wspec.Duration(sim.FromDuration(DefaultCellTimeout))
	}
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.StringVar(&r.Experiments, "run", r.Experiments, "experiment selection: 'all' or comma-separated IDs (fig1, fig5, ..., table1, table2, ablations)")
	all.Uint64Var(&r.Seed, "seed", r.Seed, "base random seed; replicas use seed, seed+1, ...")
	all.IntVar(&r.Seeds, "seeds", r.Seeds, "seed replicas per cell (envelopes report mean ±stddev across them)")
	all.IntVar(&r.Parallelism, "parallel", r.Parallelism, "worker pool size; 0 = GOMAXPROCS, 1 = serial")
	all.Var(&r.CellTimeout, "timeout", "wall-clock budget per cell replica (0 = none)")
	all.Var(&r.Duration, "duration", "measurement window per run (simulated)")
	all.Var(&r.Warmup, "warmup", "warmup per run (simulated)")
	all.IntVar(&r.Shards, "shards", r.Shards, "per-pod engine shards for podtraffic and -workload cells (once/unlimited workloads only; results, probes and telemetry equal the serial run's); 1 = serial")
	all.Var(r.WorkloadFlag(), "workload", "run a declarative workload spec (preset name or spec.json path) across the §4 system lineup instead of -run")
	all.StringVar(&r.Scheme, "scheme", r.Scheme, "comma-separated scheme specs (registry name, optionally name:k=v,...); restricts -run scheme-matrix or replaces the -workload or -run podtraffic system lineup")
	all.StringVar(&r.Topology, "topo", r.Topology, "with -run podtraffic: the fabric, a topology spec (clos3:pods=N,hpl=M; or clos, mesh, single); empty = clos3")
	all.VisitAll(func(f *flag.Flag) {
		if len(names) == 0 || slices.Contains(names, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}

// WorkloadFlag is the flag.Value behind -workload: a preset name or
// spec path on the command line is the quoted-string form of Workload.
func (r *Request) WorkloadFlag() flag.Value { return workloadFlag{&r.Workload} }

type workloadFlag struct{ raw *json.RawMessage }

func (f workloadFlag) String() string {
	var name string
	if f.raw != nil && len(*f.raw) > 0 {
		_ = json.Unmarshal(*f.raw, &name) // an inline object has no name to show
	}
	return name
}

func (f workloadFlag) Set(name string) (err error) {
	*f.raw, err = json.Marshal(name)
	return err
}
