package scheme

import (
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// The built-in scheme lineup. Names are the historical
// cluster.Scheme strings — campaign cell IDs hash these, so they are
// frozen. Adding a scheme is one Register call in one file: the
// descriptor carries everything the cluster needs (policy
// constructor, transport caps, GRO requirement, controller hooks).
func init() {
	// ecmp and mptcp share the policy: MPTCP's subflow placement is the
	// ECMP roll per subflow flow key.
	newECMP := func(h Host, _ Resolved) vswitch.Policy { return vswitch.NewECMP(h.Fork()) }
	Register(&Scheme{
		Name:        "ecmp",
		Description: "pin each flow to one random end-to-end path (official GRO)",
		Paper:       "Hopps, RFC 2992 (baseline in Presto §4)",
		New:         newECMP,
	})
	Register(&Scheme{
		Name:        "mptcp",
		Description: "ECMP-pinned MPTCP subflows with coupled congestion control",
		Paper:       "Raiciu et al., NSDI 2011 (baseline in Presto §4)",
		Params: []Param{
			{Name: "subflows", Kind: KindInt, Default: "8", Min: 1, Max: 64,
				Help: "subflows per connection"},
		},
		Transport: func(p Resolved) Transport {
			return Transport{Subflows: p.Int("subflows")}
		},
		New: newECMP,
	})
	Register(&Scheme{
		Name:        "presto",
		Description: "spray flowcells round-robin over shadow-MAC trees (Presto GRO)",
		Paper:       "He et al., SIGCOMM 2015 (Algorithm 1)",
		Params: []Param{
			{Name: "cell", Kind: KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20,
				Help: "flowcell size in bytes"},
		},
		GRO: GROPresto,
		Transport: func(p Resolved) Transport {
			if cell := p.Bytes("cell"); cell < packet.MaxSegSize {
				// Algorithm 1 assigns whole skbs to flowcells, so a
				// smaller flowcell caps the TSO write size to match.
				return Transport{MaxSeg: cell}
			}
			return Transport{}
		},
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewPresto(p.Bytes("cell"))
		},
	})
	Register(&Scheme{
		Name:        "flowlet",
		Description: "switch paths at inactivity gaps (official GRO)",
		Paper:       "Kandula et al., FDNA 2004 (comparison in Presto §5)",
		Params: []Param{
			{Name: "gap", Kind: KindDuration, Default: "500us",
				Min: float64(sim.Microsecond), Max: float64(sim.Second),
				Help: "flowlet inactivity gap"},
		},
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewFlowlet(p.Duration("gap"))
		},
	})
	Register(&Scheme{
		Name:        "presto-ecmp",
		Description: "stamp flowcells but let switches hash per hop (Figure 14)",
		Paper:       "He et al., SIGCOMM 2015 (§4.4)",
		GRO:         GROPresto,
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewPrestoECMP()
		},
	})
	Register(&Scheme{
		Name:        "per-packet",
		Description: "spray every MTU packet (TSO off, Presto GRO)",
		Paper:       "He et al., SIGCOMM 2015 (§2.1 baseline)",
		GRO:         GROPresto,
		Transport: func(p Resolved) Transport {
			return Transport{MaxSeg: packet.MSS}
		},
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewPerPacket()
		},
	})
	Register(&Scheme{
		Name:        "diffflow",
		Description: "spray mice per-flowcell, pin elephants to hashed ECMP paths",
		Paper:       "Carpio, Engelmann, Jukan — DiffFlow (arXiv:1604.05107)",
		Params: []Param{
			{Name: "threshold", Kind: KindBytes, Default: "1MB", Min: float64(packet.MSS), Max: 1 << 30,
				Help: "bytes before a flow is classified as an elephant"},
			{Name: "cell", Kind: KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20,
				Help: "flowcell size for the mice phase"},
		},
		GRO: GROPresto,
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewDiffFlow(p.Bytes("threshold"), p.Bytes("cell"))
		},
	})
	Register(&Scheme{
		Name:        "sprinklers",
		Description: "per-destination randomized stripe sizes, reordering-free",
		Paper:       "Ding, Xu, Dai, Song, Lin — Sprinklers (arXiv:1407.0006)",
		Params: []Param{
			{Name: "min-stripe", Kind: KindBytes, Default: "256KB", Min: float64(packet.MSS), Max: 1 << 30,
				Help: "minimum stripe size"},
			{Name: "max-stripe", Kind: KindBytes, Default: "1MB", Min: float64(packet.MSS), Max: 1 << 30,
				Help: "maximum stripe size"},
		},
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewSprinklers(h.Fork(), p.Bytes("min-stripe"), p.Bytes("max-stripe"))
		},
	})
	Register(&Scheme{
		Name:        "rdna-balance",
		Description: "isolate elephants on a dedicated label subset via strict source routing",
		Paper:       "Liberato et al., RDNA (IEEE TNSM 2018)",
		Params: []Param{
			{Name: "elephant", Kind: KindBytes, Default: "1MB", Min: float64(packet.MSS), Max: 1 << 30,
				Help: "bytes before a flow is isolated as an elephant"},
			{Name: "cell", Kind: KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20,
				Help: "flowcell size for mice spraying"},
			{Name: "isolated-frac", Kind: KindFloat, Default: "0.25", Min: 0.01, Max: 0.9,
				Help: "fraction of labels reserved for elephants"},
		},
		GRO: GROPresto,
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewRDNABalance(p.Bytes("elephant"), p.Bytes("cell"), p.Float("isolated-frac"))
		},
	})
	Register(&Scheme{
		Name:        "spritz",
		Description: "path-aware weighted flowcell spraying on low-diameter fabrics",
		Paper:       "Spritz-style path-aware balancing (low-diameter topologies)",
		Params: []Param{
			{Name: "cell", Kind: KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20,
				Help: "flowcell size"},
		},
		GRO:   GROPresto,
		Hooks: Hooks{TreeWeights: TreeHopWeights},
		New: func(h Host, p Resolved) vswitch.Policy {
			return vswitch.NewSpritz(p.Bytes("cell"))
		},
	})
}

// TreeHopWeights weights each tree by the inverse of its (source
// leaf → destination leaf) hop count: on a low-diameter mesh the
// direct one-hop tree gets twice the share of any two-hop detour.
// Unreachable trees get weight zero (the controller drops them).
func TreeHopWeights(tp *topo.Topology, trees []topo.Tree, srcLeaf, dstLeaf topo.NodeID) []float64 {
	w := make([]float64, len(trees))
	for i, tr := range trees {
		if hops, ok := tr.Walk(tp, srcLeaf, dstLeaf, nil); ok && hops > 0 {
			w[i] = 1 / float64(hops)
		}
	}
	return w
}
