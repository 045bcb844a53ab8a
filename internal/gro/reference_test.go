package gro

import (
	"reflect"
	"slices"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

// refPresto is the Presto GRO handler this package shipped before Flush
// became O(active): every flow ever seen stays in order, and every
// Flush walks all of them with one map lookup each. It is kept, test
// only, as the differential oracle for the optimised handler — the two
// must emit the same segments, in the same order, for the same reasons,
// at the same instants, with the same Stats. It embeds a Presto for its
// configuration, flow table, estimator helpers and counters, and
// replaces what changed: Receive's bookkeeping and the Flush walk. It
// never ages an entry; the fuzzed tables stay far below the size at
// which the optimised handler's sweep first runs.
type refPresto struct {
	Presto
	order []packet.FlowKey
}

func newRefPresto(eng *sim.Engine, out Output, cfg PrestoConfig) *refPresto {
	r := &refPresto{Presto: *NewPresto(eng, out, cfg)}
	r.timer = sim.NewTimer(eng, r.Flush)
	return r
}

func (g *refPresto) Receive(p *packet.Packet) {
	now := g.Eng.Now()
	if control(p) {
		g.stats.ControlOut++
		g.Out.DeliverSegment(segFromPacket(p, now))
		return
	}
	g.stats.PacketsIn++
	f, ok := g.flows[p.Flow]
	if !ok {
		f = &prestoFlow{}
		f.ewma.Alpha = g.cfg.EWMAWeight
		f.mdev.Alpha = g.cfg.EWMAWeight
		g.flows[p.Flow] = f
		g.order = append(g.order, p.Flow)
	}
	for i := len(f.segs) - 1; i >= 0; i-- {
		seg := f.segs[i]
		if mergeTail(seg, p, now) {
			g.stats.Merges++
			return
		}
		if mergeHead(seg, p, now) {
			g.stats.Merges++
			for j := i; j > 0 && packet.SeqLT(f.segs[j].StartSeq, f.segs[j-1].StartSeq); j-- {
				f.segs[j], f.segs[j-1] = f.segs[j-1], f.segs[j]
			}
			return
		}
	}
	f.insertSeg(segFromPacket(p, now))
}

func (g *refPresto) HeldSegments() int {
	n := 0
	for _, f := range g.flows {
		n += len(f.segs)
	}
	return n
}

// Flush is the pre-optimisation walk, verbatim.
func (g *refPresto) Flush() {
	now := g.Eng.Now()
	var nextDeadline sim.Time = -1
	held := false
	for _, key := range g.order {
		f := g.flows[key]
		if f == nil || len(f.segs) == 0 {
			continue
		}
		if !f.init {
			f.init = true
			f.lastFlowcell = f.segs[0].FlowcellID
			f.expSeq = f.segs[0].StartSeq
		}
		kept := f.segs[:0]
		e := g.holdBudget(f)
		for _, s := range f.segs {
			switch {
			case s.FlowcellID == f.lastFlowcell:
				reason := FlushInOrder
				if packet.SeqGT(s.StartSeq, f.expSeq) {
					reason = FlushLossGap
				}
				f.expSeq = packet.SeqMax(f.expSeq, s.EndSeq)
				g.stats.deliverData(g.Out, s, reason, now)
			case packet.SeqGT(s.FlowcellID, f.lastFlowcell):
				switch {
				case f.expSeq == s.StartSeq:
					if f.gapActive {
						f.observeResolution(float64(now - f.gapSince))
						f.gapActive = false
					}
					f.lastFlowcell = s.FlowcellID
					f.expSeq = s.EndSeq
					g.stats.deliverData(g.Out, s, FlushInOrder, now)
				case packet.SeqGT(f.expSeq, s.StartSeq):
					f.lastFlowcell = s.FlowcellID
					f.expSeq = packet.SeqMax(f.expSeq, s.EndSeq)
					g.stats.deliverData(g.Out, s, FlushOverlap, now)
				case now >= g.holdUntil(s, e):
					g.stats.TimeoutFires++
					if f.gapActive {
						f.observeResolution(float64(now - f.gapSince))
					}
					f.gapActive = false
					f.lastFlowcell = s.FlowcellID
					f.expSeq = s.EndSeq
					g.stats.deliverData(g.Out, s, FlushBoundaryTimeout, now)
				default:
					if !f.gapActive {
						f.gapActive = true
						f.gapSince = now
					}
					kept = append(kept, s)
					held = true
					if d := g.holdUntil(s, e); nextDeadline < 0 || d < nextDeadline {
						nextDeadline = d
					}
				}
			default:
				g.stats.deliverData(g.Out, s, FlushStale, now)
			}
		}
		f.segs = kept
	}
	if held {
		g.stats.ReorderHolds++
		delay := nextDeadline - now
		if delay < sim.Microsecond {
			delay = sim.Microsecond
		}
		g.timer.Reset(delay)
	} else {
		g.timer.Stop()
	}
}

// prestoLike is what the differential rig drives: a Handler that can
// also say what it still holds.
type prestoLike interface {
	Handler
	HeldSegments() int
}

// delivery is one segment as the stack saw it.
type delivery struct {
	flow       packet.FlowKey
	start, end uint32
	packets    int
	reason     FlushReason // numFlushReasons for a control delivery
	at         sim.Time
}

// rig is one handler on its own engine with a recording Output. The
// recorder reads each delivery's FlushReason off the Stats counter
// deliverData bumps just before the upcall.
type rig struct {
	eng     *sim.Engine
	h       prestoLike
	log     []delivery
	reasons [numFlushReasons]uint64
}

func (r *rig) DeliverSegment(s *packet.Segment) {
	reason := numFlushReasons
	for i, n := range r.h.Stats().FlushReasons {
		if n != r.reasons[i] {
			reason = FlushReason(i)
		}
	}
	r.reasons = r.h.Stats().FlushReasons
	r.log = append(r.log, delivery{s.Flow, s.StartSeq, s.EndSeq, s.Packets, reason, r.eng.Now()})
}

// rigs is the optimised handler and the reference, fed identically.
type rigs [2]*rig

func newRigs(cfg PrestoConfig) rigs {
	var rs rigs
	for i := range rs {
		r := &rig{eng: sim.NewEngine()}
		if i == 0 {
			r.h = NewPresto(r.eng, r, cfg)
		} else {
			r.h = newRefPresto(r.eng, r, cfg)
		}
		rs[i] = r
	}
	return rs
}

// at schedules fn(r) at time t on both rigs.
func (rs rigs) at(t sim.Time, fn func(r *rig)) {
	for _, r := range rs {
		r.eng.At(t, func() { fn(r) })
	}
}

// poll schedules one poll event at t: the batch, then Flush.
func (rs rigs) poll(t sim.Time, batch ...*packet.Packet) {
	rs.at(t, func(r *rig) {
		for _, p := range batch {
			r.h.Receive(p)
		}
		r.h.Flush()
	})
}

// run drains both engines (every hold timer included) and fails the
// test unless the optimised handler did exactly what the reference did.
func (rs rigs) run(t *testing.T) {
	t.Helper()
	for _, r := range rs {
		r.eng.RunAll()
	}
	got, want := rs[0], rs[1]
	if !slices.Equal(got.log, want.log) {
		t.Fatalf("deliveries differ from the reference walk:\n got %+v\nwant %+v", got.log, want.log)
	}
	if !reflect.DeepEqual(got.h.Stats(), want.h.Stats()) {
		t.Fatalf("stats differ from the reference walk:\n got %+v\nwant %+v", got.h.Stats(), want.h.Stats())
	}
	if g, w := got.h.HeldSegments(), want.h.HeldSegments(); g != w {
		t.Fatalf("%d segments still held, the reference walk holds %d", g, w)
	}
}

// flowPkt is pkt on the i-th test flow.
func flowPkt(flow, i int, fc uint32) *packet.Packet {
	p := pkt(i, fc)
	p.Flow.Src.Port += uint16(flow)
	return p
}

// TestPrestoFlushDeliversInFirstSeenOrder: delivery order across flows
// decides ACK emission order and so every downstream event key. Flows
// first seen A then B stay in that order even when a later poll
// receives B's packet before A's.
func TestPrestoFlushDeliversInFirstSeenOrder(t *testing.T) {
	rs := newRigs(PrestoConfig{})
	const a, b = 0, 1
	rs.poll(0, flowPkt(a, 0, 1), flowPkt(b, 0, 1))
	rs.poll(10*sim.Microsecond, flowPkt(b, 1, 1), flowPkt(a, 1, 1))
	rs.run(t)
	var ports []uint16
	for _, d := range rs[0].log {
		ports = append(ports, d.flow.Src.Port-testFlow.Src.Port)
	}
	if want := []uint16{a, b, a, b}; !slices.Equal(ports, want) {
		t.Fatalf("flows delivered in order %v, want %v", ports, want)
	}
}
