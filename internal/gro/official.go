package gro

import (
	"presto/internal/packet"
	"presto/internal/sim"
)

// Official models the stock kernel GRO algorithm described in §3.2:
// a gro_list holding at most one segment per flow. An in-order packet
// merges into its flow's segment; a packet that cannot be merged
// forces the existing segment to be pushed up and a new segment to be
// created. The end-of-poll flush pushes up everything.
//
// Under flowcell spraying this is exactly the small segment flooding
// failure mode (Figure 2): every reordered packet ejects the current
// segment, so the stack sees a storm of small segments.
type Official struct {
	Eng *sim.Engine
	Out Output

	segs  map[packet.FlowKey]*packet.Segment // gro_list: one per flow
	order []packet.FlowKey                   // deterministic flush order
	stats Stats
}

// NewOfficial returns a stock GRO handler.
func NewOfficial(eng *sim.Engine, out Output) *Official {
	return &Official{Eng: eng, Out: out, segs: make(map[packet.FlowKey]*packet.Segment)}
}

// Receive implements Handler.
func (o *Official) Receive(p *packet.Packet) {
	now := o.Eng.Now()
	if control(p) {
		o.stats.ControlOut++
		o.Out.DeliverSegment(segFromPacket(p, now))
		return
	}
	o.stats.PacketsIn++
	seg, ok := o.segs[p.Flow]
	if !ok {
		o.put(p.Flow, segFromPacket(p, now))
		return
	}
	if mergeTail(seg, p, now) {
		o.stats.Merges++
		return
	}
	// Cannot merge: push up the existing segment immediately and start
	// a new one. An in-order packet that merely hit the 64 KB cap is a
	// normal completion; anything else (reordering, option mismatch)
	// is a pathological eviction — the small-segment-flooding path.
	inOrderFull := p.Seq == seg.EndSeq && p.FlowcellID == seg.FlowcellID
	reason := FlushSegFull
	if !inOrderFull {
		o.stats.Evictions++
		reason = FlushEviction
	}
	o.evict(p.Flow, seg, reason)
	o.put(p.Flow, segFromPacket(p, now))
}

// Flush implements Handler: push up every segment in the gro_list.
func (o *Official) Flush() {
	for _, f := range o.order {
		if seg, ok := o.segs[f]; ok {
			delete(o.segs, f)
			o.stats.deliverData(o.Out, seg, FlushPollEnd, o.Eng.Now())
		}
	}
	o.order = o.order[:0]
}

// Stats implements Handler.
func (o *Official) Stats() *Stats { return &o.stats }

func (o *Official) put(f packet.FlowKey, seg *packet.Segment) {
	o.segs[f] = seg
	o.order = append(o.order, f)
}

func (o *Official) evict(f packet.FlowKey, seg *packet.Segment, reason FlushReason) {
	delete(o.segs, f)
	// The flow re-registers in order via put; drop its stale slot.
	for i, k := range o.order {
		if k == f {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
	o.stats.deliverData(o.Out, seg, reason, o.Eng.Now())
}
