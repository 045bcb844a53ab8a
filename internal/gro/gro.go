// Package gro implements the receive-offload handlers at the heart of
// the paper: the kernel's stock GRO algorithm ("Official GRO", which
// collapses under reordering — the small segment flooding problem,
// §2.2), Presto's modified GRO (Algorithm 2: multiple segments per
// flow, flowcell-ID-based loss/reorder discrimination, adaptive
// α·EWMA timeout with the β merge-hold optimization, §3.2), and a
// pass-through used for the GRO-disabled baseline.
//
// All handlers consume MTU packets from the NIC's poll loop and emit
// packet.Segments to an Output (the host stack). Flush is invoked at
// the end of every poll event, exactly as the kernel calls the GRO
// flush at the end of a NAPI poll.
package gro

import (
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// Output receives segments pushed up the networking stack.
type Output interface {
	DeliverSegment(s *packet.Segment)
}

// Handler is a receive-offload engine hosted by the NIC.
type Handler interface {
	// Receive processes one packet from the current poll batch.
	Receive(p *packet.Packet)
	// Flush is called at the end of each poll event.
	Flush()
	// Stats exposes counters for CPU accounting and the Figure 5
	// microbenchmarks.
	Stats() *Stats
}

// FlushReason classifies why a data segment was pushed up the stack.
// Every deliverData call carries one, so the per-reason counters sum
// to SegmentsOut.
type FlushReason uint8

// The flush vocabulary across all handlers.
const (
	// FlushInOrder: in-order delivery (same flowcell, or the next
	// flowcell starting exactly in sequence).
	FlushInOrder FlushReason = iota
	// FlushLossGap: a sequence gap inside a flowcell — its packets
	// share one path, so the gap is loss; push immediately (Alg. 2
	// lines 3-5).
	FlushLossGap
	// FlushBoundaryTimeout: a flowcell-boundary gap held past the
	// adaptive α·EWMA (+β merge-hold) timeout — declared loss.
	FlushBoundaryTimeout
	// FlushOverlap: overlap with a retransmitted first packet of a new
	// flowcell — pushed so TCP reacts immediately.
	FlushOverlap
	// FlushStale: a stale flowcell (late retransmission).
	FlushStale
	// FlushSegFull: Official GRO completed an in-order segment at the
	// 64 KB cap.
	FlushSegFull
	// FlushEviction: Official GRO ejected a segment on a merge failure
	// (the small-segment-flooding path).
	FlushEviction
	// FlushPollEnd: Official GRO's end-of-poll flush.
	FlushPollEnd
	// FlushNoGRO: pass-through delivery with offload disabled.
	FlushNoGRO

	numFlushReasons
)

func (r FlushReason) String() string {
	switch r {
	case FlushInOrder:
		return "in-order"
	case FlushLossGap:
		return "loss-gap"
	case FlushBoundaryTimeout:
		return "boundary-timeout"
	case FlushOverlap:
		return "overlap-retrans"
	case FlushStale:
		return "stale-flowcell"
	case FlushSegFull:
		return "seg-full"
	case FlushEviction:
		return "eviction"
	case FlushPollEnd:
		return "poll-end"
	case FlushNoGRO:
		return "no-gro"
	}
	return "unknown"
}

// Stats counts handler activity.
type Stats struct {
	PacketsIn    uint64 // data packets processed
	SegmentsOut  uint64 // data segments pushed up
	BytesOut     uint64 // payload bytes pushed up
	ControlOut   uint64 // control/ACK deliveries (not merged)
	Merges       uint64 // packet-into-segment merge operations
	Evictions    uint64 // Official: segments force-pushed by a merge failure
	TimeoutFires uint64 // Presto: boundary gaps declared lost
	ReorderHolds uint64 // Presto: flushes that held at least one segment

	// FlushReasons counts data-segment deliveries by cause; the entries
	// sum to SegmentsOut.
	FlushReasons [numFlushReasons]uint64

	tracer *telemetry.Tracer
	host   int32
}

// SetTracer attaches a structured event tracer (nil disables, the
// default) and the host actor for emitted events.
func (s *Stats) SetTracer(tr *telemetry.Tracer, host int32) {
	s.tracer = tr
	s.host = host
}

// ReasonCounts returns the per-reason flush counts as a name→count
// map (zero entries omitted), for snapshot probes.
func (s *Stats) ReasonCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for r, n := range s.FlushReasons {
		if n > 0 {
			out[FlushReason(r).String()] = n
		}
	}
	return out
}

func (s *Stats) deliverData(out Output, seg *packet.Segment, reason FlushReason, at sim.Time) {
	s.SegmentsOut++
	s.FlushReasons[reason]++
	s.BytesOut += uint64(seg.Len())
	s.tracer.GROFlush(at, s.host, seg.Len(), seg.Packets, reason.String())
	out.DeliverSegment(seg)
}

// control reports whether p must bypass merging: pure ACKs, probes,
// and connection-control packets.
func control(p *packet.Packet) bool {
	return p.Payload == 0 || p.Probe ||
		p.Flags.Has(packet.FlagSYN) || p.Flags.Has(packet.FlagFIN) || p.Flags.Has(packet.FlagRST)
}

func segFromPacket(p *packet.Packet, now sim.Time) *packet.Segment {
	ce := 0
	if p.CE {
		ce = 1
	}
	return &packet.Segment{
		CEPackets:  ce,
		EchoCE:     p.EchoCE,
		EchoTotal:  p.EchoTotal,
		Flow:       p.Flow,
		StartSeq:   p.Seq,
		EndSeq:     p.EndSeq(),
		FlowcellID: p.FlowcellID,
		Packets:    1,
		Retrans:    p.Retrans,
		CreatedAt:  now,
		LastMerge:  now,
		Flags:      p.Flags,
		Ack:        p.Ack,
		Sack:       p.Sack,
		SentAt:     p.SentAt,
		Probe:      p.Probe,
	}
}

// mergeTail appends p to seg if it is contiguous at the tail, within
// the same flowcell (TCP options must match to merge), and under the
// 64 KB segment cap. Reports whether the merge happened.
func mergeTail(seg *packet.Segment, p *packet.Packet, now sim.Time) bool {
	if p.FlowcellID != seg.FlowcellID || p.Seq != seg.EndSeq {
		return false
	}
	if seg.Len()+p.Payload > packet.MaxSegSize {
		return false
	}
	seg.EndSeq = p.EndSeq()
	seg.Packets++
	seg.LastMerge = now
	seg.Retrans = seg.Retrans || p.Retrans
	if p.CE {
		seg.CEPackets++
	}
	if packet.SeqGT(p.Ack, seg.Ack) {
		seg.Ack = p.Ack
	}
	seg.Flags |= p.Flags & packet.FlagPSH
	return true
}

// mergeHead prepends p to seg under the same constraints.
func mergeHead(seg *packet.Segment, p *packet.Packet, now sim.Time) bool {
	if p.FlowcellID != seg.FlowcellID || p.EndSeq() != seg.StartSeq {
		return false
	}
	if seg.Len()+p.Payload > packet.MaxSegSize {
		return false
	}
	seg.StartSeq = p.Seq
	seg.Packets++
	seg.LastMerge = now
	seg.Retrans = seg.Retrans || p.Retrans
	if p.CE {
		seg.CEPackets++
	}
	seg.SentAt = p.SentAt
	return true
}

// None is the GRO-disabled baseline: every packet is its own segment.
// With it, the receiver CPU must touch every MTU packet individually
// (the ~5.5-7 Gbps wall the paper cites from [34]).
type None struct {
	Eng   *sim.Engine
	Out   Output
	stats Stats
}

// NewNone returns a pass-through handler.
func NewNone(eng *sim.Engine, out Output) *None { return &None{Eng: eng, Out: out} }

// Receive implements Handler.
func (n *None) Receive(p *packet.Packet) {
	if control(p) {
		n.stats.ControlOut++
		n.Out.DeliverSegment(segFromPacket(p, n.Eng.Now()))
		return
	}
	n.stats.PacketsIn++
	n.stats.deliverData(n.Out, segFromPacket(p, n.Eng.Now()), FlushNoGRO, n.Eng.Now())
}

// Flush implements Handler.
func (n *None) Flush() {}

// Stats implements Handler.
func (n *None) Stats() *Stats { return &n.stats }
