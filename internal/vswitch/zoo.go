package vswitch

import (
	"slices"

	"presto/internal/packet"
	"presto/internal/sim"
)

// This file holds the scheme-zoo policies beyond the paper's own
// lineup: DiffFlow, Sprinklers, RDNA Balance, and Spritz. Each reuses
// the same datapath seams as the Presto policy (controller label
// lists, noteFlowcell accounting, idle flow-table GC) so they compose
// with weighted multipathing, sharding, and telemetry unchanged.

// diffFlowState tracks one flow's byte count and spray cursor.
type diffFlowState struct {
	bytes      int // lifetime bytes (elephant detection)
	cellBytes  int // bytes in the current flowcell
	macIdx     int
	flowcellID uint32
	pinned     bool
	lastSeen   sim.Time
}

func (s *diffFlowState) idleSince() sim.Time { return s.lastSeen }

// DiffFlow implements the size-threshold split of DiffFlow (Carpio,
// Engelmann, Jukan): flows start as mice and are sprayed per-flowcell exactly like
// Presto; once a flow's byte count crosses Threshold it is an elephant
// and gets pinned to a single ECMP path (chosen by flow hash), so long
// transfers stop paying reordering costs while short flows keep the
// low-latency spread.
type DiffFlow struct {
	// Threshold is the elephant-detection byte count.
	Threshold int
	// Cell is the flowcell size mice are sprayed at.
	Cell int

	flows map[packet.FlowKey]*diffFlowState
}

// NewDiffFlow returns a DiffFlow policy splitting at threshold bytes,
// spraying mice in cell-sized flowcells.
func NewDiffFlow(threshold, cell int) *DiffFlow {
	if threshold <= 0 {
		threshold = 1 << 20
	}
	if cell <= 0 {
		cell = packet.MaxSegSize
	}
	return &DiffFlow{Threshold: threshold, Cell: cell, flows: make(map[packet.FlowKey]*diffFlowState)}
}

// Name implements Policy.
func (d *DiffFlow) Name() string { return "diffflow" }

// Select implements Policy.
func (d *DiffFlow) Select(vs *VSwitch, seg *packet.Segment) {
	macs := vs.Mapping(seg.Flow.Dst.Host)
	st, ok := d.flows[seg.Flow]
	if !ok {
		if len(d.flows) >= policyGCThreshold {
			sweepIdle(vs.Eng.Now(), d.flows)
		}
		st = &diffFlowState{}
		d.flows[seg.Flow] = st
		vs.noteFlowcell(pathIndex(macs, 0), 0)
	}
	st.lastSeen = vs.Eng.Now()
	n := seg.Len()
	st.bytes += n
	switch {
	case st.pinned:
		// Elephant: everything stays on the pinned path.
	case st.bytes > d.Threshold:
		// Crossing the threshold: pin to the hash-chosen ECMP path.
		// The transition is one final flowcell boundary so a Presto GRO
		// receiver sees a clean cut, deterministic without RNG.
		st.pinned = true
		st.flowcellID++
		if len(macs) > 0 {
			st.macIdx = int(seg.Flow.Hash() % uint32(len(macs)))
		}
		vs.noteFlowcell(pathIndex(macs, st.macIdx), st.flowcellID)
		st.cellBytes = n
	case st.cellBytes+n > d.Cell:
		// Mouse: Presto-style flowcell spray.
		st.cellBytes = n
		st.macIdx++
		st.flowcellID++
		vs.noteFlowcell(pathIndex(macs, st.macIdx), st.flowcellID)
	default:
		st.cellBytes += n
	}
	seg.FlowcellID = st.flowcellID
	stampLabel(seg, macs, st.macIdx)
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
	stampLabel(seg, macs, d.macIdx)
}

// rdnaState mirrors diffFlowState for the RDNA policy.
type rdnaState struct {
	bytes      int
	cellBytes  int
	macIdx     int
	flowcellID uint32
	isolated   bool
	lastSeen   sim.Time
}

func (s *rdnaState) idleSince() sim.Time { return s.lastSeen }

// RDNABalance implements RDNA Balance-style elephant isolation: the
// label list is partitioned into a mice subset and a dedicated
// elephant subset (the last ceil(IsolatedFrac·len) labels). Mice spray
// flowcells round-robin over the mice subset; once a flow crosses
// ElephantBytes it is strict-source-routed onto one label of the
// elephant subset (each shadow-MAC label is exactly one deterministic
// path through its spanning tree), so elephants cannot queue behind
// mice on the shared labels.
type RDNABalance struct {
	// ElephantBytes is the isolation threshold.
	ElephantBytes int
	// Cell is the mice flowcell size.
	Cell int
	// IsolatedFrac is the fraction of the label list reserved for
	// elephants (at least one label when the list has ≥ 2 entries).
	IsolatedFrac float64

	flows map[packet.FlowKey]*rdnaState
}

// NewRDNABalance returns an RDNA Balance policy.
func NewRDNABalance(elephantBytes, cell int, isolatedFrac float64) *RDNABalance {
	if elephantBytes <= 0 {
		elephantBytes = 1 << 20
	}
	if cell <= 0 {
		cell = packet.MaxSegSize
	}
	if isolatedFrac <= 0 || isolatedFrac >= 1 {
		isolatedFrac = 0.25
	}
	return &RDNABalance{
		ElephantBytes: elephantBytes,
		Cell:          cell,
		IsolatedFrac:  isolatedFrac,
		flows:         make(map[packet.FlowKey]*rdnaState),
	}
}

// Name implements Policy.
func (r *RDNABalance) Name() string { return "rdna-balance" }

// split returns the sizes of the mice prefix and elephant suffix of an
// n-label list. Lists too short to partition (< 2) keep everything in
// the mice subset.
func (r *RDNABalance) split(n int) (mice, elephants int) {
	if n < 2 {
		return n, 0
	}
	elephants = int(float64(n)*r.IsolatedFrac + 0.5)
	if elephants < 1 {
		elephants = 1
	}
	if elephants >= n {
		elephants = n - 1
	}
	return n - elephants, elephants
}

// Select implements Policy.
func (r *RDNABalance) Select(vs *VSwitch, seg *packet.Segment) {
	macs := vs.Mapping(seg.Flow.Dst.Host)
	mice, eleph := r.split(len(macs))
	st, ok := r.flows[seg.Flow]
	if !ok {
		if len(r.flows) >= policyGCThreshold {
			sweepIdle(vs.Eng.Now(), r.flows)
		}
		st = &rdnaState{}
		r.flows[seg.Flow] = st
		vs.noteFlowcell(pathIndex(macs, 0), 0)
	}
	st.lastSeen = vs.Eng.Now()
	n := seg.Len()
	st.bytes += n
	switch {
	case st.isolated:
	case st.bytes > r.ElephantBytes && eleph > 0:
		// Promote: strict source route onto one dedicated label.
		st.isolated = true
		st.flowcellID++
		st.macIdx = mice + int(seg.Flow.Hash()%uint32(eleph))
		vs.noteFlowcell(pathIndex(macs, st.macIdx), st.flowcellID)
	case st.cellBytes+n > r.Cell:
		// Mice spray over the shared subset only.
		st.cellBytes = n
		st.macIdx++
		st.flowcellID++
		vs.noteFlowcell(r.micePath(macs, mice, st.macIdx), st.flowcellID)
	default:
		st.cellBytes += n
	}
	seg.FlowcellID = st.flowcellID
	if !st.isolated && mice > 0 && len(macs) > 0 {
		seg.DstMAC = macs[st.macIdx%mice]
		return
	}
	stampLabel(seg, macs, st.macIdx)
}

// micePath is pathIndex restricted to the mice subset.
func (r *RDNABalance) micePath(macs []packet.MAC, mice, macIdx int) int {
	if mice <= 0 {
		return pathIndex(macs, macIdx)
	}
	return macIdx % mice
}

// spritzFlow tracks one flow's flowcell accumulation; the label choice
// itself is per destination (spritzSched).
type spritzFlow struct {
	cellBytes  int
	mac        packet.MAC
	flowcellID uint32
	lastSeen   sim.Time
}

func (s *spritzFlow) idleSince() sim.Time { return s.lastSeen }

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

// Spritz implements path-aware weighted flowcell spraying for
// low-diameter topologies (Spritz: De Marchi et al.): the controller's
// per-tree link-load weights arrive as duplicated labels in the
// mapping (§3.3); the policy runs a smooth weighted round-robin over
// the distinct labels at flowcell granularity, so direct (1-hop) mesh
// paths carry proportionally more flowcells than 2-hop detours.
type Spritz struct {
	// Cell is the flowcell size.
	Cell int

	flows  map[packet.FlowKey]*spritzFlow
	scheds map[packet.HostID]*spritzSched
}

// NewSpritz returns a Spritz policy spraying cell-sized flowcells.
func NewSpritz(cell int) *Spritz {
	if cell <= 0 {
		cell = packet.MaxSegSize
	}
	return &Spritz{
		Cell:   cell,
		flows:  make(map[packet.FlowKey]*spritzFlow),
		scheds: make(map[packet.HostID]*spritzSched),
	}
}

// Name implements Policy.
func (s *Spritz) Name() string { return "spritz" }

// sched returns the destination's WRR schedule, rebuilding it when the
// controller has pushed a new mapping.
func (s *Spritz) sched(dst packet.HostID, macs []packet.MAC) *spritzSched {
	sc, ok := s.scheds[dst]
	if !ok {
		sc = &spritzSched{}
		sc.rebuild(macs)
		s.scheds[dst] = sc
	} else if !sc.matches(macs) {
		sc.rebuild(macs)
	}
	return sc
}

// Select implements Policy.
func (s *Spritz) Select(vs *VSwitch, seg *packet.Segment) {
	macs := vs.Mapping(seg.Flow.Dst.Host)
	st, ok := s.flows[seg.Flow]
	if !ok {
		if len(s.flows) >= policyGCThreshold {
			sweepIdle(vs.Eng.Now(), s.flows)
		}
		st = &spritzFlow{}
		s.flows[seg.Flow] = st
		st.mac, _ = s.pick(vs, seg, macs, 0)
	}
	st.lastSeen = vs.Eng.Now()
	n := seg.Len()
	if st.cellBytes+n > s.Cell {
		st.cellBytes = n
		st.flowcellID++
		st.mac, _ = s.pick(vs, seg, macs, st.flowcellID)
	} else {
		st.cellBytes += n
	}
	seg.FlowcellID = st.flowcellID
	if len(macs) == 0 {
		seg.DstMAC = packet.HostMAC(seg.Flow.Dst.Host)
		return
	}
	seg.DstMAC = st.mac
}

// pick selects the next flowcell's label through the destination's WRR
// schedule and records the per-path accounting.
func (s *Spritz) pick(vs *VSwitch, seg *packet.Segment, macs []packet.MAC, cell uint32) (packet.MAC, int) {
	if len(macs) == 0 {
		vs.noteFlowcell(0, cell)
		return packet.HostMAC(seg.Flow.Dst.Host), 0
	}
	sc := s.sched(seg.Flow.Dst.Host, macs)
	mac, idx := sc.next()
	vs.noteFlowcell(idx, cell)
	return mac, idx
}
