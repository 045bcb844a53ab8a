package topo

import (
	"strconv"

	"presto/internal/packet"
	"presto/internal/param"
)

// DefaultSwitchQueueBytes is a switch port's buffer unless a spec sets queue=.
const DefaultSwitchQueueBytes = 2 << 20

// Spec is a fabric in the scheme grammar (package param): a shape, its
// sizes and its switch settings, "clos3:pods=25,hpl=20". Every value
// is bounded in the shape's schema, so a spec that parses builds.
type Spec struct {
	name string
	vals param.Resolved
}

// shape is one fabric shape: its parameter schema and its builder.
type shape struct {
	params []param.Param
	build  func(param.Resolved) *Topology
}

// count is a size key bounded to [lo, hi].
func count(name, def string, lo, hi float64) param.Param {
	return param.Param{Name: name, Kind: param.KindInt, Default: def, Min: lo, Max: hi}
}

// shapes are the fabrics a spec names. A key is a size some
// experiment varies, bounded by the largest value a cell or test runs
// (Figure 4's clos sweeps, the 1,000-host clos3 pod run, the testbed's
// 16 hosts on one switch); the other constructor arguments are fixed.
// Only clos sets its switch buffer (queue=) and ECN depth (ecn=, 0:
// never), as the buffer and DCTCP ablations do.
var shapes = map[string]shape{
	"clos": {[]param.Param{
		count("spines", "4", 1, 8), count("leaves", "4", 1, 8), count("hpl", "4", 1, 8),
		{Name: "queue", Kind: param.KindBytes, Default: strconv.Itoa(DefaultSwitchQueueBytes), Min: packet.MTU, Max: 1 << 30},
		{Name: "ecn", Kind: param.KindBytes, Default: "0", Max: 1 << 30},
	}, func(r param.Resolved) *Topology {
		return TwoTierClos(r.Int("spines"), r.Int("leaves"), r.Int("hpl"), 1, LinkConfig{})
	}},
	"clos3": {[]param.Param{count("pods", "4", 1, 25), count("hpl", "2", 1, 20)}, func(r param.Resolved) *Topology {
		return ThreeTierClos(r.Int("pods"), 2, 2, r.Int("hpl"), LinkConfig{})
	}},
	"mesh": {nil, func(param.Resolved) *Topology { return LeafMesh(4, 4, LinkConfig{}) }},
	"single": {[]param.Param{count("hosts", "16", 1, 16)},
		func(r param.Resolved) *Topology { return SingleSwitch(r.Int("hosts"), LinkConfig{}) }},
}

// ParseSpec parses and validates a topology spec ("clos",
// "clos:leaves=2,spines=8", "clos3:pods=3,hpl=1", "single:hosts=3").
func ParseSpec(spec string) (Spec, error) {
	name, _, r, err := param.Lookup("topology", spec, shapes, func(s shape) []param.Param { return s.params })
	return Spec{name: name, vals: r}, err
}

// String renders the spec canonically (param.Normal): every spelling
// of one fabric ("clos3", "clos3:pods=4", "clos3:hpl=2,pods=4") is one.
func (s Spec) String() string { return param.Normal(s.name, shapes[s.name].params, s.vals) }

// Build constructs the fabric.
func (s Spec) Build() *Topology { return shapes[s.name].build(s.vals) }

// Switch returns the switch ports' buffer and ECN threshold (0: none).
func (s Spec) Switch() (queueBytes, ecnBytes int) {
	if s.name != "clos" {
		return DefaultSwitchQueueBytes, 0
	}
	return s.vals.Bytes("queue"), s.vals.Bytes("ecn")
}
