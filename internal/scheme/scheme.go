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
	"strings"

	"presto/internal/packet"
	"presto/internal/param"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

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
	// Params is the parameter schema; unknown keys are rejected.
	Params []param.Param
	// GRO is the required receiver offload.
	GRO GRO
	// Transport derives the required sender-stack configuration from
	// resolved params (nil = all defaults).
	Transport func(p param.Resolved) Transport
	// Hooks are optional controller extensions.
	Hooks Hooks
	// New constructs the per-host policy.
	New func(h Host, p param.Resolved) vswitch.Policy
}

// Resolve validates raw values against the schema and fills defaults.
func (s *Scheme) Resolve(values map[string]string) (param.Resolved, error) {
	return param.Resolve("scheme "+s.Name, s.Params, values)
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

// Get returns the named scheme.
func Get(name string) (*Scheme, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Names lists every registered scheme, sorted.
func Names() []string { return param.Keys(registry) }

// ParseSpec splits a "name" or "name:k=v,k=v" scheme spec into the
// registry name and the raw values callers carry in configs, after
// validating both against the registry (param.Lookup).
func ParseSpec(spec string) (string, map[string]string, error) {
	name, vals, _, err := param.Lookup("scheme", spec, registry, func(s *Scheme) []param.Param { return s.Params })
	return name, vals, err
}
