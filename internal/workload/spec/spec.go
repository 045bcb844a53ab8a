// Package spec implements the declarative workload-spec language:
// a versioned, stdlib-only JSON format ("presto-workload/1") that
// turns "scenario" into data rather than code. A spec names a set of
// clients, each with an arrival rate and process (poisson or once), a
// flow-size distribution (fixed, lognormal, pareto, empirical CDF, or
// unlimited), an optional application-level response and a src/dst
// selection policy (pairs, stride, random, bijection, incast,
// north-south, shuffle) — or a recorded trace of flow starts to replay
// verbatim. Compile (generator.go) turns a validated spec
// into a deterministic event-driven generator on a cluster.Cluster:
// every random draw comes from per-client RNG streams derived from the
// run seed, so a spec + seed is byte-identical at any parallelism.
//
// Specs load from JSON files (Load), raw bytes (Parse), named presets
// (Preset, presets.go), or either (Resolve). Validation failures carry
// field paths ("clients[2].arrival.process: ...") so a bad spec is
// diagnosable without reading the loader source.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"presto/internal/sim"
)

// Version is the format identifier every spec must carry.
const Version = "presto-workload/1"

// Duration is a sim.Time that marshals as a Go duration string
// ("50ms") and unmarshals from either a string or a bare nanosecond
// count, so specs and campaign requests stay human-writable. *Duration
// is also a flag.Value, so the same type backs the CLIs' duration
// flags.
type Duration sim.Time

// String renders the duration as its Go string form ("50ms").
func (d *Duration) String() string { return sim.Time(*d).AsDuration().String() }

// Set parses a Go duration string (flag.Value).
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(sim.FromDuration(v))
	return nil
}

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON accepts "150ms"-style strings or integer nanoseconds;
// null leaves the duration unset.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if bytes.Equal(b, []byte("null")) {
		return nil
	}
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		return d.Set(s)
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(sim.FromDuration(time.Duration(ns)))
	return nil
}

// Spec is one complete workload description.
type Spec struct {
	// Version must be "presto-workload/1".
	Version string `json:"version"`
	// Name labels the spec in campaign cell IDs and artifacts. Presets
	// use their preset name; file-loaded specs default to "workload".
	Name string `json:"name,omitempty"`
	// Clients are the traffic sources; at least one is required.
	Clients []Client `json:"clients"`
}

// Client is one traffic source of a spec.
type Client struct {
	// ID names the client in results and error messages; required and
	// unique within the spec.
	ID string `json:"id"`
	// Rate is the poisson arrival rate in flows/sec; once clients take
	// none.
	Rate float64 `json:"rate,omitempty"`
	// Arrival is the arrival process; required unless Trace is set.
	Arrival Arrival `json:"arrival"`
	// Size is the flow-size distribution; required unless Trace is set.
	Size SizeDist `json:"size"`
	// ResponseBytes, when > 0, makes every flow a request/response
	// exchange: once the request is delivered the destination answers
	// with this many bytes on the same connection, and the flow's FCT
	// spans request start → response delivered (the paper's mice with
	// application-level acknowledgements). Not valid with unlimited
	// sizes.
	ResponseBytes int `json:"response_bytes,omitempty"`
	// Select is the src/dst selection policy; required unless Trace is
	// set.
	Select Select `json:"select"`
	// Trace, when set, replays recorded flow starts instead of
	// synthesizing traffic; Arrival/Size/Select must be absent.
	Trace *TraceSource `json:"trace,omitempty"`
}

// Arrival processes.
const (
	ProcPoisson = "poisson"
	ProcOnce    = "once"
)

// Arrival describes a client's flow inter-arrival process.
type Arrival struct {
	// Process is poisson | once.
	//
	//   poisson  memoryless exponential gaps at the client's rate
	//   once     one flow per selected pair at run start (elephants)
	Process string `json:"process"`
}

// Size distribution kinds.
const (
	SizeFixed     = "fixed"
	SizeLognormal = "lognormal"
	SizePareto    = "pareto"
	SizeEmpirical = "empirical"
	SizeUnlimited = "unlimited"
)

// SizeDist describes a client's flow-size distribution, in bytes.
type SizeDist struct {
	// Kind is fixed | lognormal | pareto | empirical | unlimited.
	// unlimited flows never finish (long-running elephants measured by
	// throughput, not FCT) and are only valid with the once process.
	Kind string `json:"kind"`
	// Bytes is the fixed size.
	Bytes int `json:"bytes,omitempty"`
	// MedianBytes/Sigma parameterize lognormal: exp(ln(median)+sigma·N).
	MedianBytes float64 `json:"median_bytes,omitempty"`
	Sigma       float64 `json:"sigma,omitempty"`
	// ScaleBytes/Alpha parameterize pareto: scale·U^(-1/alpha).
	ScaleBytes float64 `json:"scale_bytes,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	// CDF is the empirical distribution: ascending (bytes, frac) points
	// with frac ending at 1 — the CDC-style heavy-tail shape. Sampling
	// interpolates linearly between points.
	CDF []CDFPoint `json:"cdf,omitempty"`
	// Min/Max clamp every sampled size (0 = unbounded on that side).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
}

// CDFPoint is one point of an empirical size CDF.
type CDFPoint struct {
	Bytes float64 `json:"bytes"`
	Frac  float64 `json:"frac"`
}

// Selection kinds.
const (
	SelPairs      = "pairs"
	SelStride     = "stride"
	SelRandom     = "random"
	SelBijection  = "bijection"
	SelIncast     = "incast"
	SelNorthSouth = "northsouth"
	SelShuffle    = "shuffle"
)

// selKinds lists the selection kinds for error messages.
const selKinds = "pairs, stride, random, bijection, incast, northsouth, shuffle"

// Select describes how each arrival picks its (src, dst) pair.
type Select struct {
	// Kind is pairs | stride | random | bijection | incast | northsouth
	// | shuffle.
	//
	//   pairs       uniform over the explicit Pairs list
	//   stride      uniform over {(i, (i+Stride) mod N)}
	//   random      uniform src, random cross-pod dst; with the once
	//               process, one seed-drawn cross-pod dst per server
	//   bijection   uniform over a seed-drawn cross-pod permutation
	//   incast      uniform dst; each arrival opens FanIn concurrent
	//               flows from distinct random sources (fan-in capped
	//               at N-1 on small fabrics)
	//   northsouth  uniform server src, uniform remote (spine-attached
	//               user) dst — requires a topology with remotes
	//   shuffle     closed loop: every server sends one fixed-size
	//               transfer to every other server in seed-drawn order,
	//               two in flight per source, each completion starting
	//               the next (once process, fixed size only)
	Kind string `json:"kind"`
	// Stride is the stride offset (default N/2).
	Stride int `json:"stride,omitempty"`
	// FanIn is the incast fan-in degree; required for incast.
	FanIn int `json:"fan_in,omitempty"`
	// Pairs are explicit (src, dst) host pairs; required for pairs.
	Pairs [][2]int `json:"pairs,omitempty"`
}

// TraceSource replays recorded flow starts. cmd/capture writes a
// whole run's starts as a spec with one trace client, so the spec
// (and its hash) carries the traffic itself.
type TraceSource struct {
	// Inline holds the flow starts in non-decreasing time order;
	// required.
	Inline []FlowStart `json:"inline,omitempty"`
	// Loop restarts the trace from its beginning until the run ends,
	// shifting timestamps by the trace span per lap.
	Loop bool `json:"loop,omitempty"`
}

// FlowStart is one recorded flow start: at time At, Src opened a flow
// of Bytes bytes to Dst.
type FlowStart struct {
	At    Duration `json:"at"`
	Src   int      `json:"src"`
	Dst   int      `json:"dst"`
	Bytes int      `json:"bytes"`
}

// Parse decodes and validates a spec from JSON bytes. Unknown fields
// are rejected so typos fail loudly instead of silently changing the
// workload.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Resolve loads a spec from a preset name ("elephants", "incast32",
// ...) or, failing that, a JSON file path — the kube-burner-style "a
// name is enough" entry point every front-end shares.
func Resolve(nameOrPath string) (*Spec, error) {
	if IsPreset(nameOrPath) {
		return Preset(nameOrPath)
	}
	return Load(nameOrPath)
}

// ResolveJSON resolves a JSON value that is either a string (preset
// name or file path) or an inline spec object — the wire form prestod
// job requests carry.
func ResolveJSON(raw []byte) (*Spec, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("workload: empty value")
	}
	if trimmed[0] == '"' {
		var name string
		if err := json.Unmarshal(trimmed, &name); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		return Resolve(name)
	}
	return Parse(trimmed)
}

// Canonical returns the spec's canonical JSON encoding (struct field
// order, sorted map keys) — the bytes Hash fingerprints.
func (s *Spec) Canonical() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable types; this is unreachable for
		// a validated spec.
		panic(fmt.Sprintf("spec: canonical encode: %v", err))
	}
	return data
}

// Hash fingerprints the spec's identity: the first 16 hex characters
// of the SHA-256 of its canonical JSON. Campaign cells record it so
// artifacts (and the future result cache) key on the exact workload.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])[:16]
}

// badField marks a validation failure with its JSON field path.
func badField(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// finiteNonNeg rejects NaN/Inf/negative parameters.
func finiteNonNeg(path, name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badField(path, "%s is %v; must be finite", name, v)
	}
	if v < 0 {
		return badField(path, "%s is %v; must be >= 0", name, v)
	}
	return nil
}

// Validate checks the spec's topology-independent invariants, reporting
// the first violation with its field path. Topology-dependent checks
// (host IDs in range, remotes present) happen at Compile.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return badField("version", "got %q, want %q", s.Version, Version)
	}
	if len(s.Clients) == 0 {
		return badField("clients", "at least one client is required")
	}
	seen := make(map[string]bool, len(s.Clients))
	for i := range s.Clients {
		c := &s.Clients[i]
		path := fmt.Sprintf("clients[%d]", i)
		if c.ID == "" {
			return badField(path+".id", "required")
		}
		if seen[c.ID] {
			return badField(path+".id", "duplicate client id %q", c.ID)
		}
		seen[c.ID] = true
		if err := c.validate(path); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one client.
func (c *Client) validate(path string) error {
	if c.Trace != nil {
		if c.Arrival != (Arrival{}) || c.Size.Kind != "" || c.Select.Kind != "" {
			return badField(path+".trace", "trace clients must not set arrival/size/select")
		}
		if c.Rate != 0 {
			return badField(path+".rate", "trace clients take no rate; their flow starts are recorded")
		}
		return c.Trace.validate(path + ".trace")
	}
	if err := c.validateRate(path); err != nil {
		return err
	}
	if err := c.Arrival.validate(path + ".arrival"); err != nil {
		return err
	}
	if err := c.Size.validate(path + ".size"); err != nil {
		return err
	}
	if err := c.Select.validate(path + ".select"); err != nil {
		return err
	}
	if c.Size.Kind == SizeUnlimited && c.Arrival.Process != ProcOnce {
		return badField(path+".size.kind", "unlimited flows require the once process (they never finish)")
	}
	if c.ResponseBytes < 0 {
		return badField(path+".response_bytes", "got %d; must be >= 0", c.ResponseBytes)
	}
	if c.ResponseBytes > 0 && c.Size.Kind == SizeUnlimited {
		return badField(path+".response_bytes", "unlimited flows never finish, so they cannot be answered")
	}
	if c.Arrival.Process == ProcOnce {
		switch c.Select.Kind {
		case SelPairs, SelStride, SelBijection, SelRandom, SelShuffle:
		default:
			return badField(path+".select.kind", "once needs an enumerable pair set (pairs, stride, bijection, random, shuffle); got %q", c.Select.Kind)
		}
	}
	if c.Select.Kind == SelShuffle {
		if c.Arrival.Process != ProcOnce {
			return badField(path+".arrival.process", "shuffle is a closed loop started once; got %q", c.Arrival.Process)
		}
		if c.Size.Kind != SizeFixed {
			return badField(path+".size.kind", "shuffle transfers have a fixed size; got %q", c.Size.Kind)
		}
	}
	return nil
}

// validateRate checks that poisson clients have a rate and once
// clients none.
func (c *Client) validateRate(path string) error {
	if err := finiteNonNeg(path+".rate", "rate", c.Rate); err != nil {
		return err
	}
	if c.Arrival.Process == ProcOnce {
		if c.Rate != 0 {
			return badField(path+".rate", "once clients take no rate")
		}
		return nil
	}
	if c.Rate == 0 {
		return badField(path+".rate", "a rate is required")
	}
	// The mean gap, 1e9/rate ns, must be a positive sim.Time: above 1e9
	// flows/s it rounds to 0, and below ~1.1e-10 it overflows.
	if gap := 1e9 / c.Rate; gap < 1 || gap >= math.MaxInt64 {
		return badField(path+".rate", "got %g; the mean gap 1e9/rate ns must be 1 ns to 2^63 ns (rate 1.1e-10 to 1e9 flows/s)", c.Rate)
	}
	return nil
}

// validate checks an arrival process.
func (a *Arrival) validate(path string) error {
	switch a.Process {
	case ProcPoisson, ProcOnce:
	case "":
		return badField(path+".process", "required (poisson, once)")
	default:
		return badField(path+".process", "unknown process %q (poisson, once)", a.Process)
	}
	return nil
}

// validate checks a size distribution.
func (d *SizeDist) validate(path string) error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"median_bytes", d.MedianBytes}, {"sigma", d.Sigma},
		{"scale_bytes", d.ScaleBytes}, {"alpha", d.Alpha},
	} {
		if err := finiteNonNeg(path, p.name, p.v); err != nil {
			return err
		}
	}
	if d.Min < 0 || d.Max < 0 {
		return badField(path+".min", "bounds must be >= 0 (got min=%d max=%d)", d.Min, d.Max)
	}
	if d.Min != 0 && d.Max != 0 && d.Min > d.Max {
		return badField(path+".min", "inverted bounds: min %d > max %d", d.Min, d.Max)
	}
	switch d.Kind {
	case SizeFixed:
		if d.Bytes <= 0 {
			return badField(path+".bytes", "fixed size needs bytes > 0 (got %d)", d.Bytes)
		}
	case SizeLognormal:
		if d.MedianBytes <= 0 {
			return badField(path+".median_bytes", "lognormal needs median_bytes > 0")
		}
	case SizePareto:
		if d.ScaleBytes <= 0 {
			return badField(path+".scale_bytes", "pareto needs scale_bytes > 0")
		}
		if d.Alpha <= 0 {
			return badField(path+".alpha", "pareto needs alpha > 0")
		}
	case SizeEmpirical:
		if len(d.CDF) < 2 {
			return badField(path+".cdf", "empirical needs >= 2 CDF points")
		}
		for i, pt := range d.CDF {
			ppath := fmt.Sprintf("%s.cdf[%d]", path, i)
			if math.IsNaN(pt.Bytes) || math.IsInf(pt.Bytes, 0) || pt.Bytes <= 0 {
				return badField(ppath, "bytes %v must be finite and > 0", pt.Bytes)
			}
			if math.IsNaN(pt.Frac) || pt.Frac < 0 || pt.Frac > 1 {
				return badField(ppath, "frac %v must be in [0, 1]", pt.Frac)
			}
			if i > 0 && (pt.Bytes <= d.CDF[i-1].Bytes || pt.Frac <= d.CDF[i-1].Frac) {
				return badField(ppath, "CDF points must be strictly ascending in bytes and frac")
			}
		}
		if last := d.CDF[len(d.CDF)-1].Frac; last != 1 {
			return badField(fmt.Sprintf("%s.cdf[%d].frac", path, len(d.CDF)-1), "CDF must end at frac 1 (got %g)", last)
		}
	case SizeUnlimited:
	case "":
		return badField(path+".kind", "required (fixed, lognormal, pareto, empirical, unlimited)")
	default:
		return badField(path+".kind", "unknown size kind %q (fixed, lognormal, pareto, empirical, unlimited)", d.Kind)
	}
	return nil
}

// validate checks a selection policy.
func (sel *Select) validate(path string) error {
	switch sel.Kind {
	case SelPairs:
		if len(sel.Pairs) == 0 {
			return badField(path+".pairs", "pairs selection needs at least one (src, dst) pair")
		}
		for i, p := range sel.Pairs {
			if p[0] < 0 || p[1] < 0 {
				return badField(fmt.Sprintf("%s.pairs[%d]", path, i), "host IDs must be >= 0")
			}
			if p[0] == p[1] {
				return badField(fmt.Sprintf("%s.pairs[%d]", path, i), "src == dst (%d)", p[0])
			}
		}
	case SelStride:
		if sel.Stride < 0 {
			return badField(path+".stride", "got %d; must be >= 0 (0 = N/2)", sel.Stride)
		}
	case SelRandom, SelBijection, SelNorthSouth, SelShuffle:
	case SelIncast:
		if sel.FanIn < 2 {
			return badField(path+".fan_in", "incast needs fan_in >= 2 (got %d)", sel.FanIn)
		}
	case "":
		return badField(path+".kind", "required (%s)", selKinds)
	default:
		return badField(path+".kind", "unknown selection %q (%s)", sel.Kind, selKinds)
	}
	return nil
}

// validate checks a trace source.
func (t *TraceSource) validate(path string) error {
	if len(t.Inline) == 0 {
		return badField(path+".inline", "at least one flow start is required")
	}
	for i, f := range t.Inline {
		fpath := fmt.Sprintf("%s.inline[%d]", path, i)
		if err := validateFlowStart(fpath, f); err != nil {
			return err
		}
		if i > 0 && f.At < t.Inline[i-1].At {
			return badField(fpath+".at", "timestamps must be non-decreasing")
		}
	}
	return nil
}

// validateFlowStart checks one recorded flow start.
func validateFlowStart(path string, f FlowStart) error {
	if f.At < 0 {
		return badField(path+".at", "negative start time %v", sim.Time(f.At))
	}
	if f.Src < 0 || f.Dst < 0 {
		return badField(path+".src", "host IDs must be >= 0 (got src=%d dst=%d)", f.Src, f.Dst)
	}
	if f.Src == f.Dst {
		return badField(path+".src", "src == dst (%d)", f.Src)
	}
	if f.Bytes <= 0 {
		return badField(path+".bytes", "flow size must be > 0 (got %d)", f.Bytes)
	}
	return nil
}

// NeedsRemotes reports whether any client targets north-south remotes,
// so front-ends know to attach remote users to the topology before
// Compile.
func (s *Spec) NeedsRemotes() bool {
	for i := range s.Clients {
		if s.Clients[i].Trace == nil && s.Clients[i].Select.Kind == SelNorthSouth {
			return true
		}
	}
	return false
}
