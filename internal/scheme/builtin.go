package scheme

import (
	"presto/internal/packet"
	"presto/internal/param"
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
	newECMP := func(h Host, _ param.Resolved) vswitch.Policy { return vswitch.NewECMP(h.Fork()) }
	// ecmp: pin each flow to one random end-to-end path (official GRO). Hopps, RFC 2992 (baseline in Presto §4).
	Register(&Scheme{
		Name: "ecmp",
		New:  newECMP,
	})
	// mptcp: ECMP-pinned MPTCP subflows with coupled congestion control. Raiciu et al., NSDI 2011 (baseline in Presto §4).
	Register(&Scheme{
		Name: "mptcp",
		Params: []param.Param{
			{Name: "subflows", Kind: param.KindInt, Default: "8", Min: 1, Max: 64}, // subflows per connection
		},
		Transport: func(p param.Resolved) Transport {
			return Transport{Subflows: p.Int("subflows")}
		},
		New: newECMP,
	})
	// presto: spray flowcells round-robin over shadow-MAC trees (Presto GRO). He et al., SIGCOMM 2015 (Algorithm 1).
	Register(&Scheme{
		Name: "presto",
		Params: []param.Param{
			{Name: "cell", Kind: param.KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20}, // flowcell size in bytes
		},
		GRO: GROPresto,
		Transport: func(p param.Resolved) Transport {
			if cell := p.Bytes("cell"); cell < packet.MaxSegSize {
				// Algorithm 1 assigns whole skbs to flowcells, so a
				// smaller flowcell caps the TSO write size to match.
				return Transport{MaxSeg: cell}
			}
			return Transport{}
		},
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewPresto(p.Bytes("cell"))
		},
	})
	// flowlet: switch paths at inactivity gaps (official GRO). Kandula et al., FDNA 2004 (comparison in Presto §5).
	Register(&Scheme{
		Name: "flowlet",
		Params: []param.Param{
			{Name: "gap", Kind: param.KindDuration, Default: "500us",
				Min: float64(sim.Microsecond), Max: float64(sim.Second)}, // flowlet inactivity gap
		},
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewFlowlet(p.Duration("gap"))
		},
	})
	// presto-ecmp: stamp flowcells but let switches hash per hop (Figure 14). He et al., SIGCOMM 2015 (§4.4).
	Register(&Scheme{
		Name: "presto-ecmp",
		GRO:  GROPresto,
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewPrestoECMP()
		},
	})
	// per-packet: spray every MTU packet (TSO off, Presto GRO). He et al., SIGCOMM 2015 (§2.1 baseline).
	Register(&Scheme{
		Name: "per-packet",
		GRO:  GROPresto,
		Transport: func(p param.Resolved) Transport {
			return Transport{MaxSeg: packet.MSS}
		},
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewPerPacket()
		},
	})
	// diffflow: spray mice per-flowcell, pin elephants to hashed ECMP paths. Carpio, Engelmann, Jukan — DiffFlow (arXiv:1604.05107).
	Register(&Scheme{
		Name: "diffflow",
		Params: []param.Param{
			{Name: "threshold", Kind: param.KindBytes, Default: "1MB", Min: float64(packet.MSS), Max: 1 << 30}, // bytes before a flow is classified as an elephant
			{Name: "cell", Kind: param.KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20},     // flowcell size for the mice phase
		},
		GRO: GROPresto,
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewDiffFlow(p.Bytes("threshold"), p.Bytes("cell"))
		},
	})
	// sprinklers: per-destination randomized stripe sizes, reordering-free. Ding, Xu, Dai, Song, Lin — Sprinklers (arXiv:1407.0006).
	Register(&Scheme{
		Name: "sprinklers",
		Params: []param.Param{
			{Name: "min-stripe", Kind: param.KindBytes, Default: "256KB", Min: float64(packet.MSS), Max: 1 << 30}, // minimum stripe size
			{Name: "max-stripe", Kind: param.KindBytes, Default: "1MB", Min: float64(packet.MSS), Max: 1 << 30},   // maximum stripe size
		},
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewSprinklers(h.Fork(), p.Bytes("min-stripe"), p.Bytes("max-stripe"))
		},
	})
	// rdna-balance: isolate elephants on a dedicated label subset via strict source routing. Liberato et al., RDNA (IEEE TNSM 2018).
	Register(&Scheme{
		Name: "rdna-balance",
		Params: []param.Param{
			{Name: "elephant", Kind: param.KindBytes, Default: "1MB", Min: float64(packet.MSS), Max: 1 << 30}, // bytes before a flow is isolated as an elephant
			{Name: "cell", Kind: param.KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20},    // flowcell size for mice spraying
			{Name: "isolated-frac", Kind: param.KindFloat, Default: "0.25", Min: 0.01, Max: 0.9},              // fraction of labels reserved for elephants
		},
		GRO: GROPresto,
		New: func(h Host, p param.Resolved) vswitch.Policy {
			return vswitch.NewRDNABalance(p.Bytes("elephant"), p.Bytes("cell"), p.Float("isolated-frac"))
		},
	})
	// spritz: path-aware weighted flowcell spraying on low-diameter fabrics. Spritz-style path-aware balancing (low-diameter topologies).
	Register(&Scheme{
		Name: "spritz",
		Params: []param.Param{
			{Name: "cell", Kind: param.KindBytes, Default: "64KB", Min: float64(packet.MSS), Max: 1 << 20}, // flowcell size
		},
		GRO:   GROPresto,
		Hooks: Hooks{TreeWeights: TreeHopWeights},
		New: func(h Host, p param.Resolved) vswitch.Policy {
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
