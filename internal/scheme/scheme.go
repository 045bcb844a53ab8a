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
	"slices"

	"presto/internal/packet"
	"presto/internal/param"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// GRO is a receive-offload algorithm, the `gro` key's value.
type GRO int

const (
	// GROOfficial: the scheme is reordering-free (or tolerates stock
	// coalescing), so receivers run official GRO.
	GROOfficial GRO = iota
	// GROPresto: the scheme sprays below flow granularity, so receivers
	// need the reorder-tolerant Presto GRO (Algorithm 2).
	GROPresto
	// GRONone disables receive offload (§2.2's no-GRO wall).
	GRONone
)

// groNames are the `gro` key's values, indexed by GRO.
var groNames = []string{"official", "presto", "none"}

func (g GRO) String() string { return groNames[g] }

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
	// Params is the scheme's own parameter schema; every scheme also
	// takes the shared keys gro, alpha, cc and labels.
	Params []param.Param
	// GRO is the required receiver offload, the `gro` key's default.
	GRO GRO
	// Transport derives the required sender-stack configuration from
	// resolved params (nil = all defaults).
	Transport func(p param.Resolved) Transport
	// Hooks are optional controller extensions.
	Hooks Hooks
	// New constructs the per-host policy.
	New func(h Host, p param.Resolved) vswitch.Policy
}

// schema is the scheme's whole parameter schema: its own Params, then
// the keys every scheme shares: the receivers' offload, Presto GRO's
// α (Algorithm 2's hold scale, bounded by the ablation's sweep), the
// congestion control, and per-host or per-leaf tunnel labels (§3.1).
func (s *Scheme) schema() []param.Param {
	return append(slices.Clip(s.Params),
		param.Param{Name: "gro", Kind: param.KindEnum, Default: s.GRO.String(), Values: groNames},
		param.Param{Name: "alpha", Kind: param.KindFloat, Default: "2", Min: 0.5, Max: 4},
		param.Param{Name: "cc", Kind: param.KindEnum, Default: "cubic", Values: []string{"cubic", "reno", "dctcp"}},
		param.Param{Name: "labels", Kind: param.KindEnum, Default: "per-host", Values: []string{"per-host", "tunnel"}})
}

// Resolve validates raw values against the schema and fills defaults.
// An α is refused unless the receive offload is Presto GRO.
func (s *Scheme) Resolve(values map[string]string) (param.Resolved, error) {
	r, err := param.Resolve("scheme "+s.Name, s.schema(), values)
	if _, set := values["alpha"]; set && err == nil && r.Enum("gro") != GROPresto.String() {
		return param.Resolved{}, fmt.Errorf("scheme %s: param alpha: Presto GRO's α needs gro=presto, not gro=%s", s.Name, r.Enum("gro"))
	}
	return r, err
}

// TransportFor returns the scheme's transport requirements for
// resolved params.
func (s *Scheme) TransportFor(p param.Resolved) Transport {
	if s.Transport == nil {
		return Transport{}
	}
	return s.Transport(p)
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
	if _, err := s.Resolve(nil); err != nil {
		panic("scheme: bad default: " + err.Error())
	}
	registry[s.Name] = s
}

// Names lists every registered scheme, sorted.
func Names() []string { return param.Keys(registry) }

// Spec is a scheme spec parsed against the registry: the scheme, the
// values as given (nil: none) and their resolution.
type Spec struct {
	*Scheme
	Values   map[string]string
	Resolved param.Resolved
}

// ParseSpec parses and validates a "name" or "name:k=v,k=v" scheme
// spec (param.Lookup).
func ParseSpec(spec string) (Spec, error) {
	name, vals, _, err := param.Lookup("scheme", spec, registry, (*Scheme).schema)
	if err != nil {
		return Spec{}, err
	}
	r, err := registry[name].Resolve(vals)
	if err != nil {
		return Spec{}, err
	}
	return Spec{registry[name], vals, r}, nil
}

// String renders the spec as given, keys sorted (param.Canonical).
func (s Spec) String() string { return param.Canonical(s.Name, s.Values) }

// Normal renders the spec in its one spelling (param.Normal), so
// "presto:gro=presto,cell=64KB" is "presto".
func (s Spec) Normal() string { return param.Normal(s.Name, s.schema(), s.Resolved) }
