// Package scheme is the load-balancer plugin registry: every
// balancing scheme the testbed can run — the paper's own lineup and
// the competitor zoo — is a self-describing entry carrying its
// constructor, parameter schema, required transport/GRO configuration,
// and optional controller hooks. internal/cluster builds policies by
// registry lookup instead of a hard-coded switch, and every front-end
// (cmd/experiments, cmd/capture, prestod) resolves `-scheme` strings
// through ParseSpec, so adding a scheme is one file registering
// itself here.
//
// The registry is deterministic: Names iterates in sorted order, and
// per-host randomness comes only from the Host.Fork stream the cluster
// hands each constructor (forked from the run seed in host order).
package scheme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// ParamKind types a scheme parameter.
type ParamKind int

const (
	// KindBytes is a byte count; values accept plain integers or
	// KB/MB/GB suffixes (binary: 64KB = 65536).
	KindBytes ParamKind = iota
	// KindDuration is a simulated duration in Go syntax ("500us").
	KindDuration
	// KindFloat is a floating-point value.
	KindFloat
	// KindInt is a plain integer.
	KindInt
)

func (k ParamKind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindDuration:
		return "duration"
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	}
	return "?"
}

// Param is one schema entry: name, type, default, and bounds.
type Param struct {
	Name    string
	Kind    ParamKind
	Default string
	// Min and Max bound the parsed numeric value (nanoseconds for
	// durations); zero leaves that side unbounded.
	Min, Max float64
	Help     string
}

// parse converts a raw value to the param's native representation,
// enforcing bounds.
func (p Param) parse(raw string) (any, error) {
	var v any
	var n float64
	switch p.Kind {
	case KindBytes:
		b, err := parseBytes(raw)
		if err != nil {
			return nil, err
		}
		v, n = b, float64(b)
	case KindDuration:
		d, err := time.ParseDuration(raw)
		if err != nil {
			return nil, err
		}
		t := sim.FromDuration(d)
		v, n = t, float64(t)
	case KindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, err
		}
		v, n = f, f
	case KindInt:
		i, err := strconv.Atoi(raw)
		if err != nil {
			return nil, err
		}
		v, n = i, float64(i)
	default:
		return nil, fmt.Errorf("unknown param kind %d", p.Kind)
	}
	if (p.Min != 0 && n < p.Min) || (p.Max != 0 && n > p.Max) {
		return nil, fmt.Errorf("value %s out of range [%g, %g]", raw, p.Min, p.Max)
	}
	return v, nil
}

// parseBytes parses "65536", "64KB", "1MB", "2GB" (binary multiples).
func parseBytes(s string) (int, error) {
	t := strings.TrimSpace(s)
	mult := 1
	upper := strings.ToUpper(t)
	switch {
	case strings.HasSuffix(upper, "KB"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(upper, "GB"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(upper, "B"):
		t = t[:len(t)-1]
	}
	n, err := strconv.Atoi(strings.TrimSpace(t))
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return n * mult, nil
}

// Resolved is a validated, fully-defaulted parameter set.
type Resolved struct {
	vals map[string]any
}

// Bytes returns a KindBytes param's value.
func (r Resolved) Bytes(name string) int { return r.vals[name].(int) }

// Duration returns a KindDuration param's value.
func (r Resolved) Duration(name string) sim.Time { return r.vals[name].(sim.Time) }

// Float returns a KindFloat param's value.
func (r Resolved) Float(name string) float64 { return r.vals[name].(float64) }

// Int returns a KindInt param's value.
func (r Resolved) Int(name string) int { return r.vals[name].(int) }

// GRO is the receive-offload algorithm a scheme requires.
type GRO int

const (
	// GROOfficial: the scheme is reordering-free (or tolerates stock
	// coalescing), so receivers run official GRO.
	GROOfficial GRO = iota
	// GROPresto: the scheme sprays below flow granularity, so receivers
	// need the reorder-tolerant Presto GRO (Algorithm 2).
	GROPresto
)

func (g GRO) String() string {
	if g == GROPresto {
		return "presto"
	}
	return "official"
}

// Transport is the sender-stack configuration a scheme requires. The
// zero value is the stack as configured: 64 KB TSO writes, one TCP
// flow per connection.
type Transport struct {
	// MaxSeg caps the stack's write size in bytes (0 = the stack's
	// 64 KB TSO max). One MSS means one-packet writes, TSO off.
	MaxSeg int
	// Subflows > 1 opens that many ECMP-pinned MPTCP subflows per
	// connection instead of one TCP flow.
	Subflows int
}

// Host is what a scheme constructor gets for one host.
type Host struct {
	ID packet.HostID
	// Fork returns a fresh deterministic random stream forked from the
	// run seed. Constructors that need randomness call it (at most
	// once); those that don't must not, so RNG consumption — and thus
	// every downstream fork — stays byte-identical across schemes that
	// never drew randomness before the registry existed.
	Fork func() *sim.RNG
}

// Hooks are optional controller-side extensions.
type Hooks struct {
	// TreeWeights computes per-tree path weights for a (source leaf,
	// destination leaf) pair; the controller encodes them as duplicated
	// labels in the pushed mapping (§3.3 weighted multipathing). Trees
	// are the usable subset for the pair, in controller order.
	TreeWeights func(tp *topo.Topology, trees []topo.Tree, srcLeaf, dstLeaf topo.NodeID) []float64
}

// Scheme is one registered load-balancing scheme.
type Scheme struct {
	// Name is the registry key: a spec's part before any ':'
	// ("ecmp", "presto", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Paper cites the scheme's source.
	Paper string
	// Params is the parameter schema; unknown keys are rejected.
	Params []Param
	// GRO is the required receiver offload.
	GRO GRO
	// Transport derives the required sender-stack configuration from
	// resolved params (nil = all defaults).
	Transport func(p Resolved) Transport
	// Hooks are optional controller extensions.
	Hooks Hooks
	// New constructs the per-host policy.
	New func(h Host, p Resolved) vswitch.Policy
}

// HasParam reports whether the schema has a parameter named name.
func (s *Scheme) HasParam(name string) bool {
	for _, p := range s.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Resolve validates raw values against the schema and fills defaults.
func (s *Scheme) Resolve(values map[string]string) (Resolved, error) {
	r := Resolved{vals: make(map[string]any, len(s.Params))}
	for _, p := range s.Params {
		raw, ok := values[p.Name]
		if !ok {
			raw = p.Default
		}
		v, err := p.parse(raw)
		if err != nil {
			return Resolved{}, fmt.Errorf("scheme %s: param %s: %w", s.Name, p.Name, err)
		}
		r.vals[p.Name] = v
	}
	// Reject unknown keys (sorted for a deterministic message).
	var unknown []string
	for k := range values {
		if !s.HasParam(k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return Resolved{}, fmt.Errorf("scheme %s: unknown param(s) %s (schema: %s)",
			s.Name, strings.Join(unknown, ", "), s.schemaNames())
	}
	return r, nil
}

// TransportFor returns the scheme's transport requirements for
// resolved params.
func (s *Scheme) TransportFor(p Resolved) Transport {
	if s.Transport == nil {
		return Transport{}
	}
	return s.Transport(p)
}

func (s *Scheme) schemaNames() string {
	if len(s.Params) == 0 {
		return "(none)"
	}
	names := make([]string, len(s.Params))
	for i, p := range s.Params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// registry holds every registered scheme, keyed by name.
var registry = make(map[string]*Scheme)

// Register adds a scheme to the registry. It panics on duplicate or
// malformed registrations — registration happens at init time, so a
// bad plugin should fail loudly and immediately.
func Register(s *Scheme) {
	if s.Name == "" || s.New == nil {
		panic("scheme: Register needs a Name and a New constructor")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scheme: duplicate registration of " + s.Name)
	}
	for _, p := range s.Params {
		if _, err := p.parse(p.Default); err != nil {
			panic(fmt.Sprintf("scheme %s: bad default for param %s: %v", s.Name, p.Name, err))
		}
	}
	registry[s.Name] = s
}

// Get returns the named scheme.
func Get(name string) (*Scheme, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Names lists every registered scheme, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParseSpec splits a "name" or "name:k=v,k=v" scheme spec into the
// registry name and raw parameter values, validating both against the
// registry (params are resolved to check types/bounds, then the raw
// map is returned so callers can carry it in configs).
func ParseSpec(spec string) (string, map[string]string, error) {
	name := spec
	var rest string
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, rest = spec[:i], spec[i+1:]
	}
	name = strings.TrimSpace(name)
	s, err := Get(name)
	if err != nil {
		return "", nil, err
	}
	var vals map[string]string
	if rest != "" {
		vals = make(map[string]string)
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			eq := strings.IndexByte(kv, '=')
			if eq <= 0 {
				return "", nil, fmt.Errorf("scheme %s: bad param %q (want k=v)", name, kv)
			}
			vals[strings.TrimSpace(kv[:eq])] = strings.TrimSpace(kv[eq+1:])
		}
	}
	if _, err := s.Resolve(vals); err != nil {
		return "", nil, err
	}
	return name, vals, nil
}

// CanonicalSpec renders a (name, params) pair back into the canonical
// spec string: params in sorted key order, so equal configurations
// produce byte-equal strings (cell IDs, hashes).
func CanonicalSpec(name string, params map[string]string) string {
	if len(params) == 0 {
		return name
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + params[k]
	}
	return name + ":" + strings.Join(parts, ",")
}
