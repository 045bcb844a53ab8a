package vswitch

import (
	"presto/internal/packet"
	"presto/internal/sim"
)

// flowState is Algorithm 1's per-flow datapath record — a byte counter,
// a label cursor and a flowcell ID — plus the idle stamp aging sweeps on
// and the three fields the non-Presto rules keep (a held label, a
// lifetime byte count, an elephant mark). One 48-byte, pointer-free
// allocation per flow: anything larger moves into the next size class
// and shows up in alloc_bytes_per_pkt on flow-churn workloads.
type flowState struct {
	lastSeen sim.Time
	bytes    int        // bytes in the open cell
	total    int        // lifetime bytes (elephant detection)
	cursor   int        // label cursor: position in the mapping, wrapping
	cell     uint32     // flowcell ID
	mac      packet.MAC // held label, for rules that pin a MAC rather than a cursor
	pinned   bool       // elephant: promoted off the spray
}

// fill is Algorithm 1's byte test: add n bytes to the open cell, or —
// when they would overflow size — start the count over at n and report
// that a new cell is due. It runs on a flow's first segment too.
func (st *flowState) fill(n, size int) bool {
	if st.bytes+n > size {
		st.bytes = n
		return true
	}
	st.bytes += n
	return false
}

// pathIndex maps a rule's label cursor onto the per-path accounting
// index used by noteFlowcell (index 0 also covers destinations with no
// mapping installed).
func pathIndex(macs []packet.MAC, cursor int) int {
	if len(macs) == 0 {
		return 0
	}
	return cursor % len(macs)
}

// labelAt returns the cursor'th label of the mapping (wrapping), or the
// destination's real MAC when no mapping is installed (same-leaf
// destinations, single-switch topologies). Every cursor rule funnels
// its label choice through here so none can get the empty-mapping edge
// case wrong.
func labelAt(macs []packet.MAC, cursor int, dst packet.HostID) packet.MAC {
	if len(macs) == 0 {
		return packet.HostMAC(dst)
	}
	return macs[cursor%len(macs)]
}

// labelRule is what differs between flow-keyed schemes; everything else
// — the flow table, first sight, aging, the idle stamp, stamping the
// segment — is the sender datapath below. macs is the destination's
// live mapping, re-read on every segment, so a cursor rule follows
// controller remaps while a rule that holds a MAC in st.mac does not.
type labelRule interface {
	// open runs once when the table first sees a flow (again after the
	// flow aged out). It accounts the flow's cell 0, or accounts nothing
	// for a scheme that emits no flowcells.
	open(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC)
	// label runs per segment, first one included: it decides whether the
	// segment opens a new cell (vs.newCell) and returns its label.
	// st.lastSeen still holds the previous segment's time.
	label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC
}

// sender is the flow-keyed sender datapath every scheme but Sprinklers
// runs on: Algorithm 1 with the two scheme-specific decisions left to a
// labelRule. Retransmitted TCP segments run through it again, exactly
// as in the paper's OVS datapath.
type sender struct {
	name    string
	rule    labelRule
	flows   map[packet.FlowKey]*flowState
	sweepAt int // packet.SweepIdle's back-off mark
}

func newSender(name string, rule labelRule) *sender {
	return &sender{name: name, rule: rule, flows: make(map[packet.FlowKey]*flowState)}
}

// Name implements Policy.
func (p *sender) Name() string { return p.name }

// States reports how many per-flow records the table holds.
func (p *sender) States() int { return len(p.flows) }

// Select implements Policy.
func (p *sender) Select(vs *VSwitch, seg *packet.Segment) {
	now := vs.Eng.Now()
	macs := vs.Mapping(seg.Flow.Dst.Host)
	st, ok := p.flows[seg.Flow]
	if !ok {
		st = p.admit(now, seg.Flow)
		p.rule.open(vs, st, seg, macs)
	}
	seg.DstMAC = p.rule.label(vs, st, seg, macs)
	seg.FlowcellID = st.cell
	st.lastSeen = now
}

// admit makes the record for a flow the table does not hold, aging out
// idle records first when the table is due a sweep. Eviction only
// costs an idle flow its cursor: a flow seen again starts over at cell
// 0, as a new flow would.
func (p *sender) admit(now sim.Time, flow packet.FlowKey) *flowState {
	packet.SweepIdle(p.flows, &p.sweepAt, now, flowLastSeen)
	st := &flowState{lastSeen: now}
	p.flows[flow] = st
	return st
}

// flowLastSeen is the sender table's input to the aging rule: every
// record may age.
func flowLastSeen(st *flowState) (sim.Time, bool) { return st.lastSeen, true }

// newCell opens the flow's next flowcell on accounting path pathIdx —
// the one place a flowcell ID advances.
func (vs *VSwitch) newCell(st *flowState, pathIdx int) {
	st.cell++
	vs.noteFlowcell(pathIdx, st.cell)
}

// cursorOpen is the first-sight decision of every rule that walks a
// label cursor: cell 0 rides the mapping's first label.
type cursorOpen struct{}

func (cursorOpen) open(vs *VSwitch, _ *flowState, _ *packet.Segment, macs []packet.MAC) {
	vs.noteFlowcell(pathIndex(macs, 0), 0)
}

// presto is Algorithm 1's own rule: the same shadow MAC for consecutive
// segments until a flowcell's worth accumulates, then the next label
// round-robin. Weighted multipathing falls out of duplicated labels in
// the mapping list.
type presto struct {
	cursorOpen
	cell int // flowcell size
}

func (r presto) label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC {
	if st.fill(seg.Len(), r.cell) {
		st.cursor++
		vs.newCell(st, pathIndex(macs, st.cursor))
	}
	return labelAt(macs, st.cursor, seg.Flow.Dst.Host)
}

// NewPresto returns the paper's sender policy with cell-byte flowcells:
// packet.MaxSegSize (64 KB, the max TSO size) is the paper's; other
// sizes are the flowcell-granularity ablation.
func NewPresto(cell int) Policy { return newSender("presto", presto{cell: cell}) }

// NewPerPacket sprays every MTU packet independently: a flowcell of one
// MSS. Pair it with a transport MaxSeg of one MSS (TSO off) to
// reproduce the per-packet schemes the paper argues cannot scale
// (§2.1).
func NewPerPacket() Policy {
	return newSender("per-packet", presto{cell: packet.MSS})
}

// prestoECMP stamps flowcells with Algorithm 1 but discards the label,
// so the fabric's per-hop ECMP groups hash on (flow, flowcell ID) — the
// Figure 14 comparison against end-to-end shadow-MAC multipathing.
type prestoECMP struct{ presto }

func (r prestoECMP) label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC {
	r.presto.label(vs, st, seg, macs)
	return packet.HostMAC(seg.Flow.Dst.Host)
}

// NewPrestoECMP returns the per-hop variant.
func NewPrestoECMP() Policy {
	return newSender("presto-ecmp", prestoECMP{presto{cell: packet.MaxSegSize}})
}

// ecmp is the paper's ECMP baseline: enumerate the end-to-end paths
// (the controller's label list) and pin each flow to one of them,
// chosen at random on first sight. The whole flow is one unit: the
// flowcell ID stays zero and no flowcell is accounted. The choice is
// held as a MAC, so it survives remaps while the flow is live; pinning
// is re-derivable, so aging only re-rolls truly idle flows.
type ecmp struct{ rng *sim.RNG }

func (r ecmp) open(_ *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) {
	idx := 0
	if len(macs) > 0 {
		idx = r.rng.Intn(len(macs))
	}
	st.mac = labelAt(macs, idx, seg.Flow.Dst.Host)
}

func (ecmp) label(_ *VSwitch, st *flowState, _ *packet.Segment, _ []packet.MAC) packet.MAC {
	return st.mac
}

// NewECMP returns a per-flow random path policy seeded by rng.
func NewECMP(rng *sim.RNG) Policy { return newSender("ecmp", ecmp{rng}) }

// flowlet is flowlet switching at the software edge (§5's comparison):
// a new flowlet starts when the inter-segment gap exceeds gap; flowlets
// are scheduled round-robin over the label list. The receiver pairs
// this with official GRO. It embeds its own datapath so FlowletSizes
// can read the open flowlet from the flow table.
type flowlet struct {
	*sender
	gap sim.Time
	// log records completed flowlet sizes in bytes (Figure 1). It lives
	// here, not in flowState, so only flowlet runs pay for it.
	log map[packet.FlowKey][]int
}

// NewFlowlet returns a flowlet policy with the given inactivity gap
// (the paper evaluates 100 µs and 500 µs). The returned Policy also has
// FlowletSizes(packet.FlowKey) []int.
func NewFlowlet(gap sim.Time) Policy {
	f := &flowlet{gap: gap, log: make(map[packet.FlowKey][]int)}
	f.sender = newSender("flowlet", f)
	return f
}

func (f *flowlet) open(vs *VSwitch, _ *flowState, seg *packet.Segment, macs []packet.MAC) {
	delete(f.log, seg.Flow) // a flow back from aging starts a fresh log
	vs.noteFlowcell(pathIndex(macs, 0), 0)
}

func (f *flowlet) label(vs *VSwitch, st *flowState, seg *packet.Segment, macs []packet.MAC) packet.MAC {
	if vs.Eng.Now()-st.lastSeen > f.gap {
		// Inactivity gap: close the current flowlet, start the next.
		f.log[seg.Flow] = append(f.log[seg.Flow], st.bytes)
		st.bytes = 0
		st.cursor++
		vs.newCell(st, pathIndex(macs, st.cursor))
	}
	st.bytes += seg.Len()
	return labelAt(macs, st.cursor, seg.Flow.Dst.Host)
}

// FlowletSizes returns the completed flowlet sizes (bytes) of a flow,
// including the currently open flowlet.
func (f *flowlet) FlowletSizes(flow packet.FlowKey) []int {
	st, ok := f.flows[flow]
	if !ok {
		return nil
	}
	out := append([]int(nil), f.log[flow]...)
	if st.bytes > 0 {
		out = append(out, st.bytes)
	}
	return out
}
