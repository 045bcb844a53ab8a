package vswitch

import (
	"slices"

	"presto/internal/packet"
	"presto/internal/sim"
)

// This file holds the scheme-zoo policies beyond the paper's own
// lineup: DiffFlow, RDNA Balance and Spritz as label rules on the sender
// datapath (policy.go), and Sprinklers, which keys on destination
// rather than flow and so is its own Policy. All use the same seams
// (controller label lists, noteFlowcell accounting) so they compose
// with weighted multipathing, sharding, and telemetry unchanged.

// diffFlow implements the size-threshold split of DiffFlow (Carpio,
// Engelmann, Jukan): flows start as mice and are sprayed per-flowcell exactly like
// Presto; once a flow's byte count crosses threshold it is an elephant
// and gets pinned to a single ECMP path (chosen by flow hash), so long
// transfers stop paying reordering costs while short flows keep the
// low-latency spread.
type diffFlow struct {
	cursorOpen
	threshold int // elephant-detection byte count
	cell      int // flowcell size mice are sprayed at
}

// NewDiffFlow returns a DiffFlow policy splitting at threshold bytes,
// spraying mice in cell-sized flowcells.
func NewDiffFlow(threshold, cell int) Policy {
	return newSender("diffflow", diffFlow{threshold: threshold, cell: cell})
}

func (r diffFlow) label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC {
	n := seg.Len()
	st.total += n
	switch {
	case st.pinned:
		// Elephant: everything stays on the pinned path.
	case st.total > r.threshold:
		// Crossing the threshold: pin to the hash-chosen ECMP path.
		// The transition is one final flowcell boundary so a Presto GRO
		// receiver sees a clean cut, deterministic without RNG.
		st.pinned = true
		if len(macs) > 0 {
			st.cursor = int(seg.Flow.Hash() % uint32(len(macs)))
		}
		st.bytes = n
		vs.newCell(st, pathIndex(macs, st.cursor))
	case st.fill(n, r.cell):
		// Mouse: Presto-style flowcell spray.
		st.cursor++
		vs.newCell(st, pathIndex(macs, st.cursor))
	}
	return labelAt(macs, st.cursor, seg.Flow.Dst.Host)
}

// sprinklerDest is one destination's striping cursor: Sprinklers
// stripes per destination (all flows to the same host share the
// cursor), not per flow.
type sprinklerDest struct {
	macIdx    int
	remaining int // bytes left in the current stripe
	stripeID  uint32
}

// Sprinklers implements randomized variable-size striping (Ding, Xu,
// Dai, Song, Lin's Sprinklers): each sender stripes its aggregate traffic toward
// a destination across the label list in contiguous runs whose sizes
// are drawn uniformly from [MinStripe, MaxStripe]. Randomizing stripe
// sizes per (sender, destination) desynchronizes senders so stripes
// don't beat against each other; large stripes make the scheme
// reordering-free in practice, so it pairs with official GRO.
type Sprinklers struct {
	MinStripe int
	MaxStripe int

	rng   *sim.RNG
	dests map[packet.HostID]*sprinklerDest
}

// NewSprinklers returns a Sprinklers policy drawing stripe sizes from
// [minStripe, maxStripe] using the per-host stream rng.
func NewSprinklers(rng *sim.RNG, minStripe, maxStripe int) *Sprinklers {
	if minStripe <= 0 {
		minStripe = 256 << 10
	}
	if maxStripe < minStripe {
		maxStripe = 4 * minStripe
	}
	return &Sprinklers{
		MinStripe: minStripe,
		MaxStripe: maxStripe,
		rng:       rng,
		dests:     make(map[packet.HostID]*sprinklerDest),
	}
}

// Name implements Policy.
func (s *Sprinklers) Name() string { return "sprinklers" }

// States reports how many per-destination cursors are held.
func (s *Sprinklers) States() int { return len(s.dests) }

// drawStripe samples the next stripe size.
func (s *Sprinklers) drawStripe() int {
	return s.MinStripe + s.rng.Intn(s.MaxStripe-s.MinStripe+1)
}

// Select implements Policy.
func (s *Sprinklers) Select(vs *VSwitch, seg *packet.Segment) {
	macs := vs.Mapping(seg.Flow.Dst.Host)
	dst := seg.Flow.Dst.Host
	d, ok := s.dests[dst]
	if !ok {
		d = &sprinklerDest{remaining: s.drawStripe()}
		s.dests[dst] = d
		vs.noteFlowcell(pathIndex(macs, 0), 0)
	}
	n := seg.Len()
	if d.remaining < n {
		// Stripe exhausted: advance to the next label and redraw.
		d.macIdx++
		d.stripeID++
		d.remaining = s.drawStripe()
		vs.noteFlowcell(pathIndex(macs, d.macIdx), d.stripeID)
	}
	d.remaining -= n
	seg.FlowcellID = d.stripeID
	seg.DstMAC = labelAt(macs, d.macIdx, dst)
}

// rdnaBalance implements RDNA Balance-style elephant isolation: the
// label list is partitioned into a mice subset and a dedicated
// elephant subset (the last ceil(isolatedFrac·len) labels). Mice spray
// flowcells round-robin over the mice subset; once a flow crosses
// elephant bytes it is strict-source-routed onto one label of the
// elephant subset (each shadow-MAC label is exactly one deterministic
// path through its spanning tree), so elephants cannot queue behind
// mice on the shared labels.
type rdnaBalance struct {
	cursorOpen
	elephant int // isolation threshold in bytes
	cell     int // mice flowcell size
	// isolatedFrac is the fraction of the label list reserved for
	// elephants (at least one label when the list has ≥ 2 entries).
	isolatedFrac float64
}

// NewRDNABalance returns an RDNA Balance policy isolating flows past
// elephantBytes on the last isolatedFrac (in (0,1)) of the label list.
func NewRDNABalance(elephantBytes, cell int, isolatedFrac float64) Policy {
	return newSender("rdna-balance", rdnaBalance{elephant: elephantBytes, cell: cell, isolatedFrac: isolatedFrac})
}

// split returns the sizes of the mice prefix and elephant suffix of an
// n-label list. Lists too short to partition (< 2) keep everything in
// the mice subset.
func (r rdnaBalance) split(n int) (mice, elephants int) {
	if n < 2 {
		return n, 0
	}
	elephants = int(float64(n)*r.isolatedFrac + 0.5)
	if elephants < 1 {
		elephants = 1
	}
	if elephants >= n {
		elephants = n - 1
	}
	return n - elephants, elephants
}

func (r rdnaBalance) label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC {
	mice, eleph := r.split(len(macs))
	shared := macs[:mice] // mice spray, and are accounted, over this prefix only
	n := seg.Len()
	st.total += n
	switch {
	case st.pinned:
	case st.total > r.elephant && eleph > 0:
		// Promote: strict source route onto one dedicated label.
		st.pinned = true
		st.cursor = mice + int(seg.Flow.Hash()%uint32(eleph))
		vs.newCell(st, pathIndex(macs, st.cursor))
	case st.fill(n, r.cell):
		st.cursor++
		vs.newCell(st, pathIndex(shared, st.cursor))
	}
	if st.pinned {
		return labelAt(macs, st.cursor, seg.Flow.Dst.Host)
	}
	return labelAt(shared, st.cursor, seg.Flow.Dst.Host)
}

// spritzSched is a smooth weighted round-robin over the distinct
// labels of a mapping, weighted by each label's multiplicity (the
// controller's §3.3 duplication encodes its link-load weights). Smooth
// WRR spreads a weight-3 label as A..A..A.. rather than AAA...,
// avoiding the burst clustering plain list iteration produces.
type spritzSched struct {
	macs    []packet.MAC // the mapping the schedule was built from; its length is the total weight
	labels  []packet.MAC
	weights []int
	credit  []int
}

// rebuild recomputes distinct labels and multiplicities from macs.
func (sc *spritzSched) rebuild(macs []packet.MAC) {
	sc.macs = append(sc.macs[:0], macs...)
	sc.labels = sc.labels[:0]
	sc.weights = sc.weights[:0]
	for _, m := range macs {
		found := false
		for i, l := range sc.labels {
			if l == m {
				sc.weights[i]++
				found = true
				break
			}
		}
		if !found {
			sc.labels = append(sc.labels, m)
			sc.weights = append(sc.weights, 1)
		}
	}
	sc.credit = make([]int, len(sc.labels))
}

// matches reports whether the schedule was built from this mapping:
// the same label sequence, not merely the same length — a controller
// remap (link failure, re-weighting) usually keeps the slot count.
func (sc *spritzSched) matches(macs []packet.MAC) bool {
	return slices.Equal(sc.macs, macs)
}

// next picks the label with the highest credit (ties to the lowest
// index), then charges it the total weight — classic smooth WRR.
func (sc *spritzSched) next() (packet.MAC, int) {
	best := 0
	for i := range sc.credit {
		sc.credit[i] += sc.weights[i]
		if sc.credit[i] > sc.credit[best] {
			best = i
		}
	}
	sc.credit[best] -= len(sc.macs)
	return sc.labels[best], best
}

// spritz implements path-aware weighted flowcell spraying for
// low-diameter topologies (Spritz: De Marchi et al.): the controller's
// per-tree link-load weights arrive as duplicated labels in the
// mapping (§3.3); the rule runs a smooth weighted round-robin over
// the distinct labels at flowcell granularity, so direct (1-hop) mesh
// paths carry proportionally more flowcells than 2-hop detours. The
// schedule is per destination, so a flow holds each cell's pick as a
// MAC (st.mac), not a cursor.
type spritz struct {
	cell   int // flowcell size
	scheds map[packet.HostID]*spritzSched
}

// NewSpritz returns a Spritz policy spraying cell-sized flowcells.
func NewSpritz(cell int) Policy {
	return newSender("spritz", spritz{cell: cell, scheds: make(map[packet.HostID]*spritzSched)})
}

// pick draws the next flowcell's label from the destination's WRR
// schedule — rebuilt when the controller has pushed a new mapping — and
// returns it with its accounting path.
func (r spritz) pick(dst packet.HostID, macs []packet.MAC) (packet.MAC, int) {
	if len(macs) == 0 {
		return packet.HostMAC(dst), 0
	}
	sc, ok := r.scheds[dst]
	if !ok {
		sc = &spritzSched{}
		r.scheds[dst] = sc
	}
	if !sc.matches(macs) {
		sc.rebuild(macs)
	}
	return sc.next()
}

func (r spritz) open(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) {
	var path int
	st.mac, path = r.pick(seg.Flow.Dst.Host, macs)
	vs.noteFlowcell(path, 0)
}

func (r spritz) label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC {
	if st.fill(seg.Len(), r.cell) {
		var path int
		st.mac, path = r.pick(seg.Flow.Dst.Host, macs)
		vs.newCell(st, path)
	}
	if len(macs) == 0 {
		return packet.HostMAC(seg.Flow.Dst.Host)
	}
	return st.mac
}
