package main

import (
	"embed"
	"fmt"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/topo"
	wspec "presto/internal/workload/spec"
)

//go:embed workloads/*.json
var specFiles embed.FS

// workload is one named benchmark input: a topology, a scheme, a
// traffic description and fixed simulated windows. Simulated windows
// are constants of the benchmark, never wall-time targets, so every
// repetition and every commit simulates exactly the same thing.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text; the test pins them together).
	Why    string
	Scheme cluster.Scheme
	Topo   func() *topo.Topology
	// SpecFile names the presto-workload/1 file under workloads/ that
	// drives the run. Empty means the harness dials the traffic itself
	// (the spec generator is serial-only).
	SpecFile string
	// Shards > 1 runs the sharded engine.
	Shards int
	// Handshake makes every connection open with SYN/SYN-ACK, so the
	// connection life-cycle is part of what the workload costs.
	Handshake bool

	Warmup, Window sim.Time
	// Grace is how long before window end a sized flow must have
	// started to count as an operation that should have finished.
	Grace sim.Time
}

func testbed() *topo.Topology   { return topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{}) }
func podFabric() *topo.Topology { return topo.ThreeTierClos(4, 2, 2, 4, topo.LinkConfig{}) }

// workloads is the benchmark's input set, in reporting order.
var workloads = []workload{
	{
		Name:     "elephants-presto",
		Why:      "paper headline cell (Fig. 15/16 mix): steady per-packet path TSO->fabric->ring->Presto GRO->TCP dominates, flow-table size does not",
		Scheme:   cluster.Presto,
		Topo:     testbed,
		SpecFile: "elephants-mice.json",
		Warmup:   10 * sim.Millisecond, Window: 200 * sim.Millisecond, Grace: 20 * sim.Millisecond,
	},
	{
		Name:     "elephants-ecmp",
		Why:      "same traffic without spraying or reorder holds but with hash collisions, drops and fast retransmit: a gro/vswitch gain must show no change here",
		Scheme:   cluster.ECMP,
		Topo:     testbed,
		SpecFile: "elephants-mice.json",
		Warmup:   10 * sim.Millisecond, Window: 200 * sim.Millisecond, Grace: 20 * sim.Millisecond,
	},
	{
		Name:      "mice-churn",
		Why:       "100k short flows/s between random pairs: Dial, handshake, per-flow GRO/policy state, timers and Close dominate, state grows with flows ever seen",
		Scheme:    cluster.Presto,
		Topo:      testbed,
		SpecFile:  "mice-churn.json",
		Handshake: true,
		Warmup:    20 * sim.Millisecond, Window: 180 * sim.Millisecond, Grace: 20 * sim.Millisecond,
	},
	{
		Name:   "pod-shards2",
		Why:    "cross-pod elephants on a 4-pod 3-tier Clos under 2 engine shards: the only workload where window barriers, cross-shard handoff and journal merge run",
		Scheme: cluster.Presto,
		Topo:   podFabric,
		Shards: 2,
		Warmup: 5 * sim.Millisecond, Window: 100 * sim.Millisecond, Grace: 20 * sim.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec parses the workload's spec file (nil when the harness dials the
// traffic itself).
func (w workload) spec() (*wspec.Spec, error) {
	if w.SpecFile == "" {
		return nil, nil
	}
	data, err := specFiles.ReadFile("workloads/" + w.SpecFile)
	if err != nil {
		return nil, err
	}
	ws, err := wspec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.SpecFile, err)
	}
	return ws, nil
}
