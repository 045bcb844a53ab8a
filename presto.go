// Package presto is a full reproduction of "Presto: Edge-based Load
// Balancing for Fast Datacenter Networks" (He et al., SIGCOMM 2015)
// on a deterministic discrete-event network simulator.
//
// The package exposes the experiment harness used by the examples,
// the command-line front-ends, and the benchmarks: every table and
// figure of the paper's evaluation is a list of Cells — a system on a
// topology under a workload spec, observed by a measurement set — and
// Cell.Run is the one path that executes them. The building blocks —
// flowcell spraying (Algorithm 1), the modified GRO flush (Algorithm
// 2), shadow-MAC spanning trees, the Clos fabric, TCP/MPTCP — live in
// the internal packages and are assembled by internal/cluster.
package presto

import (
	"fmt"
	"strings"

	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
)

// System is a complete load-balancing configuration compared in the
// evaluation (§4): a registry scheme (plus parameter overrides), the
// receive offload and transport it declares, and the topology
// baseline. Systems are comparable values — the historical enum-like
// variables below keep their display names (and therefore campaign
// cell IDs) byte-stable — and any registry scheme becomes a System
// via ParseSystem.
type System struct {
	scheme string // registry name ("" is invalid; use ParseSystem or the vars below)
	params string // canonical "k=v,k=v" overrides ("" = schema defaults)
	// display is the historical name ("ECMP", "Flowlet-100us", …);
	// empty for registry-derived systems, which render as the spec.
	display string
	// optimal swaps the run topology for the single non-blocking
	// switch baseline.
	optimal bool
}

// The systems of §4/§5.
var (
	// SysECMP pins each flow to one random end-to-end path.
	SysECMP = System{scheme: "ecmp", display: "ECMP"}
	// SysMPTCP runs 8 ECMP-pinned subflows with coupled congestion
	// control.
	SysMPTCP = System{scheme: "mptcp", display: "MPTCP"}
	// SysPresto is the paper's contribution: 64 KB flowcell spraying +
	// Presto GRO.
	SysPresto = System{scheme: "presto", display: "Presto"}
	// SysOptimal attaches all hosts to one non-blocking switch.
	SysOptimal = System{scheme: "ecmp", display: "Optimal", optimal: true}
	// SysFlowlet100 switches flowlets at a 100 µs inactivity gap.
	SysFlowlet100 = System{scheme: "flowlet", params: "gap=100us", display: "Flowlet-100us"}
	// SysFlowlet500 switches flowlets at a 500 µs inactivity gap.
	SysFlowlet500 = System{scheme: "flowlet", params: "gap=500us", display: "Flowlet-500us"}
	// SysPrestoECMP sprays flowcells per hop via switch ECMP hashing.
	SysPrestoECMP = System{scheme: "presto-ecmp", display: "Presto+ECMP"}
	// SysPerPacket sprays every MTU packet (TSO off).
	SysPerPacket = System{scheme: "per-packet", display: "PerPacket"}
)

// paperSystems maps the -system spellings of the paper's lineup to
// their Systems.
var paperSystems = map[string]System{
	"ecmp":        SysECMP,
	"mptcp":       SysMPTCP,
	"presto":      SysPresto,
	"optimal":     SysOptimal,
	"flowlet100":  SysFlowlet100,
	"flowlet500":  SysFlowlet500,
	"presto-ecmp": SysPrestoECMP,
	"prestoecmp":  SysPrestoECMP,
	"per-packet":  SysPerPacket,
	"perpacket":   SysPerPacket,
}

// ParseSystem resolves a system name — the one name table behind every
// front door: one of the paper's lineup (ecmp | mptcp | presto |
// optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet,
// case-insensitive) or any registry scheme spec
// ("diffflow:threshold=512KB"), validated against the registry.
func ParseSystem(s string) (System, error) {
	if sys, ok := paperSystems[strings.ToLower(s)]; ok {
		return sys, nil
	}
	name, params, err := scheme.ParseSpec(s)
	if err == nil {
		sys := System{scheme: name}
		_, sys.params, _ = strings.Cut(scheme.CanonicalSpec(name, params), ":")
		return sys, nil
	}
	// A known scheme with bad params gets the registry's own error
	// (which names the offending key/bound); only an unrecognized
	// name gets the full lineup listing.
	name, _, _ = strings.Cut(s, ":")
	if _, getErr := scheme.Get(strings.TrimSpace(name)); getErr == nil {
		return System{}, err
	}
	return System{}, fmt.Errorf("unknown system %q (paper systems: ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet; or any scheme spec: %s)",
		s, strings.Join(scheme.Names(), " | "))
}

// SchemeName returns the registry scheme the system runs.
func (s System) SchemeName() string { return s.scheme }

// Optimal reports whether the system runs on the single non-blocking
// switch baseline instead of the cell's fabric.
func (s System) Optimal() bool { return s.optimal }

// Spec returns the canonical registry spec the system runs: "name", or
// "name:k=v,..." with parameter overrides.
func (s System) Spec() string {
	if s.params != "" {
		return s.scheme + ":" + s.params
	}
	return s.scheme
}

func (s System) String() string {
	if s.display != "" {
		return s.display
	}
	return s.Spec()
}

// SchemeParams expands the canonical param string back into raw
// values for cluster.Config.SchemeParams.
func (s System) SchemeParams() map[string]string {
	_, params, _ := scheme.ParseSpec(s.Spec()) // valid by construction
	return params
}

// Options tunes an experiment run. Zero values take defaults sized
// for simulation (the paper runs 10 s × 20 repetitions on hardware;
// the simulator's deterministic steady state needs far less).
type Options struct {
	Seed     uint64
	Warmup   sim.Time // excluded from measurement (default 50 ms)
	Duration sim.Time // measurement window (default 200 ms)

	// Telemetry, when non-nil, wires event tracing and snapshot probes
	// through the run's cluster; the run's snapshot is attached to the
	// result. Nil (the default) adds zero overhead and leaves results
	// bit-identical.
	Telemetry *telemetry.Registry

	// Shards partitions the engine into per-pod shards with
	// conservative lookahead synchronization. Honored by shardable
	// cells (workload-spec and pod-scale cells); paper-figure cells
	// always execute serially — their probers, samplers and link
	// failures are cross-shard by nature. 0 or 1 = serial.
	Shards int
}

func (o *Options) fill() {
	if o.Warmup == 0 {
		o.Warmup = 50 * sim.Millisecond
	}
	if o.Duration == 0 {
		o.Duration = 200 * sim.Millisecond
	}
}

// Testbed returns the paper's Figure 3 topology: a 2-tier Clos with 4
// spines, 4 leaves, and 16 hosts, all 10 Gbps.
func Testbed() *topo.Topology {
	return topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{})
}

// ScalabilityTopo returns Figure 4a's topology: 2 leaves and `paths`
// spines, with one host per (leaf, flow).
func ScalabilityTopo(paths int) *topo.Topology {
	return topo.TwoTierClos(paths, 2, paths, 1, topo.LinkConfig{})
}

// OversubTopo returns Figure 4b's topology: 2 spines, 2 leaves, and
// `flows` hosts per leaf (oversubscription = flows/2).
func OversubTopo(flows int) *topo.Topology {
	return topo.TwoTierClos(2, 2, flows, 1, topo.LinkConfig{})
}

// OptimalTopo returns a single non-blocking switch with the given
// host count.
func OptimalTopo(hosts int) *topo.Topology {
	return topo.SingleSwitch(hosts, topo.LinkConfig{})
}

// PodTopo returns a pod-based 3-tier Clos for the pod-scale
// experiment: `pods` pods of 2 aggregation switches and 2 leaves
// each, `hostsPerLeaf` hosts per leaf (2·pods·hostsPerLeaf hosts
// total), wired to 2 cores.
func PodTopo(pods, hostsPerLeaf int) *topo.Topology {
	return topo.ThreeTierClos(pods, 2, 2, hostsPerLeaf, topo.LinkConfig{})
}
