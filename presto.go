// Package presto is a full reproduction of "Presto: Edge-based Load
// Balancing for Fast Datacenter Networks" (He et al., SIGCOMM 2015)
// on a deterministic discrete-event network simulator.
//
// The package exposes the experiment harness used by the examples
// and the command-line front-ends: every table and
// figure of the paper's evaluation is a list of Cells — a scheme on a
// topology under a workload spec, observed by a measurement — and
// Cell.Run is the one path that executes them. The building blocks —
// flowcell spraying (Algorithm 1), the modified GRO flush (Algorithm
// 2), shadow-MAC spanning trees, the Clos fabric, TCP/MPTCP — live in
// the internal packages and are assembled by internal/cluster.
package presto

import (
	"fmt"
	"slices"
	"strings"

	"presto/internal/campaign"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// lineup is the paper's §4/§5 systems, the one name table behind
// every front door: each -system spelling (matched case-insensitively)
// with the name cell IDs show for it ("sys=Flowlet-100us") and the
// registry spec it runs. Any other scheme name is a registry spec and
// stands for itself.
var lineup = []lineupRow{
	{name: "ecmp", display: "ECMP", spec: "ecmp"},
	{name: "mptcp", display: "MPTCP", spec: "mptcp"},
	{name: "presto", display: "Presto", spec: "presto"},
	// Optimal is not a load balancer: it is ECMP on the same hosts
	// attached to one non-blocking switch (topo.SingleSwitchOf).
	{name: "optimal", display: "Optimal", spec: "ecmp", optimal: true},
	{name: "flowlet100", display: "Flowlet-100us", spec: "flowlet:gap=100us"},
	{name: "flowlet500", display: "Flowlet-500us", spec: "flowlet:gap=500us"},
	{name: "presto-ecmp", display: "Presto+ECMP", spec: "presto-ecmp"},
	{name: "per-packet", display: "PerPacket", spec: "per-packet"},
}

// lineupRow is one scheme name resolved: its spelling, its cell-ID
// name, the canonical registry spec it runs, and whether it swaps the
// cell's fabric for the single-switch baseline.
type lineupRow struct {
	name, display, spec string
	optimal             bool
}

// lookupScheme resolves a scheme name: a lineup spelling, or any
// registry spec ("diffflow:threshold=512KB"), validated against the
// registry and rendered canonically.
func lookupScheme(s string) (lineupRow, error) {
	for _, r := range lineup {
		if strings.EqualFold(s, r.name) {
			return r, nil
		}
	}
	spec, err := scheme.ParseSpec(s)
	if err == nil {
		canon := spec.String()
		return lineupRow{name: canon, display: canon, spec: canon}, nil
	}
	// A known scheme with bad params gets the registry's own error
	// (which names the offending key/bound); only an unrecognized
	// name gets the full lineup listing.
	name, _, _ := strings.Cut(s, ":")
	if slices.Contains(scheme.Names(), strings.TrimSpace(name)) {
		return lineupRow{}, err
	}
	return lineupRow{}, fmt.Errorf("unknown system %q (paper systems: ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet; or any scheme spec: %s)",
		s, strings.Join(scheme.Names(), " | "))
}

// paper returns the lineup row spelled name; the experiment table
// names only rows that exist.
func paper(name string) lineupRow {
	r, err := lookupScheme(name)
	if err != nil {
		panic("presto: " + err.Error())
	}
	return r
}

// Options tunes an experiment run. Zero values take defaults sized
// for simulation (the paper runs 10 s × 20 repetitions on hardware;
// the simulator's deterministic steady state needs far less).
type Options struct {
	Seed     uint64
	Warmup   sim.Time // excluded from measurement (default campaign.DefaultWarmup)
	Duration sim.Time // measurement window (default campaign.DefaultDuration)

	// Telemetry, when non-nil, wires event tracing and snapshot probes
	// through the run's cluster at any shard count; when the run
	// returns, the registry holds its final probe values and its events.
	// Results and event counts are the untraced run's. Nil (the default)
	// adds zero overhead.
	Telemetry *telemetry.Registry

	// Shards partitions the engine into per-pod shards with
	// conservative lookahead synchronization; results equal the serial
	// run's at any count. Honored by cells measured by clients (the
	// -workload cells) or pod (the pod-scale cells); the other measures
	// run serially by policy. 0 or 1 = serial.
	Shards int
}

func (o *Options) fill() {
	if o.Warmup == 0 {
		o.Warmup = campaign.DefaultWarmup
	}
	if o.Duration == 0 {
		o.Duration = campaign.DefaultDuration
	}
}
