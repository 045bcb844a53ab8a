package gro

import (
	"presto/internal/packet"
	"presto/internal/sim"
)

// Algorithm 2's fixed settings. The paper sets α and β to 2 and finds
// they work over a wide parameter range (§3.2).
const (
	// beta extends a timed-out segment's hold if a packet merged into
	// it within EWMA/β.
	beta = 2
	// minEWMA floors the effective estimate so that a run of
	// instantly-resolved gaps cannot collapse the hold timeout to zero
	// (which would degenerate Presto GRO into immediate pushes).
	minEWMA = 20 * sim.Microsecond
	// ewmaWeight is the smoothing factor for new observations.
	ewmaWeight = 0.25
	// defaultAlpha is PrestoConfig.Alpha's default, the paper's α.
	defaultAlpha = 2
	// defaultInitialEWMA is PrestoConfig.InitialEWMA's default. It
	// starts above the worst path skew a loaded fabric shows, so the
	// estimator adapts *down* to observed resolution times; starting
	// low is a trap — gaps would time out before any resolution could
	// ever be observed, and the estimate could never grow past alpha
	// times itself.
	defaultInitialEWMA = 500 * sim.Microsecond
)

// PrestoConfig tunes the Presto GRO handler. β is fixed at the paper's
// 2; Alpha, the paper's α, is the one setting an ablation varies.
type PrestoConfig struct {
	// Alpha scales the EWMA of observed reorder-resolution times into
	// the hold timeout applied at flowcell-boundary gaps.
	Alpha float64
	// InitialEWMA seeds the reorder-time estimate before any
	// observation.
	InitialEWMA sim.Time
}

func (c *PrestoConfig) fill() {
	if c.Alpha == 0 {
		c.Alpha = defaultAlpha
	}
	if c.InitialEWMA == 0 {
		c.InitialEWMA = defaultInitialEWMA
	}
}

// prestoFlow is the per-flow state of Algorithm 2.
type prestoFlow struct {
	// segs is the segment_list, kept sorted ascending by StartSeq at
	// all times (binary insertion on arrival), so Flush walks it
	// directly instead of re-sorting every poll. Among equal start
	// sequences, newer segments sort first — the same order the
	// original head-prepend + stable-sort produced.
	segs []*packet.Segment

	// ord is the flow's first-seen ordinal at this handler — Flush
	// delivers flows in ord order — listed marks membership of
	// Presto.active, and lastSeen is when Flush last drained the flow
	// (every arrival is drained at or after it), which the aging sweep
	// reads. (The bools sit together at the end, keeping the record in
	// the 80-byte size class: flow-churn workloads allocate one per
	// flow.)
	ord      uint64
	lastSeen sim.Time

	lastFlowcell uint32 // flowcell of the most recent in-order byte
	expSeq       uint32 // next expected in-order sequence number

	// Reorder-time tracking: gapSince is when the current boundary gap
	// was first seen (valid only while gapActive); ewma estimates how
	// long reordering takes to resolve, and mdev its mean deviation,
	// both meaningful once estimated is set.
	//
	// The deviation term is a robustness extension over the paper's
	// plain EWMA: resolution times on a loaded fabric are long-tailed
	// (path skew follows the queue-depth differential), and a hold of
	// alpha*mean alone misreads tail reordering as loss. Holding for
	// alpha*(mean + 8*mdev) — Jacobson's RTO estimator applied to
	// reorder gaps, with a wider deviation multiplier because gap
	// resolution skew is heavier-tailed than RTT noise — covers the
	// tail while adapting just as fast.
	gapSince sim.Time
	ewma     float64
	mdev     float64

	listed    bool
	init      bool
	gapActive bool
	estimated bool
}

// observeResolution folds one gap-resolution duration into the flow's
// estimator: the first observation seeds the mean with d and the
// deviation with d/2, later ones move each by ewmaWeight.
func (f *prestoFlow) observeResolution(d float64) {
	if !f.estimated {
		f.ewma, f.mdev, f.estimated = d, d/2, true
		return
	}
	delta := d - f.ewma
	if delta < 0 {
		delta = -delta
	}
	f.mdev = ewmaWeight*delta + (1-ewmaWeight)*f.mdev
	f.ewma = ewmaWeight*d + (1-ewmaWeight)*f.ewma
}

// insertSeg places s into the sorted segment list by binary insertion:
// before any existing segment with an equal StartSeq (newest-first
// among ties), after everything smaller.
func (f *prestoFlow) insertSeg(s *packet.Segment) {
	lo, hi := 0, len(f.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if packet.SeqLT(f.segs[mid].StartSeq, s.StartSeq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	f.segs = append(f.segs, nil)
	copy(f.segs[lo+1:], f.segs[lo:])
	f.segs[lo] = s
}

// Presto is the paper's modified GRO handler (Algorithm 2). It keeps
// multiple segments per flow so reordered packets can merge into
// earlier segments, uses flowcell IDs to separate loss (gap inside a
// flowcell: push immediately) from reordering (gap at a flowcell
// boundary: hold briefly), and adapts its hold timeout to observed
// reordering via an EWMA.
//
// Flow lifetime: an entry is created by a flow's first data packet and
// is soft state, aged like the sender datapath's flow table
// (packet.SweepIdle) and never while it holds segments; nothing closes
// it, so a retransmission that arrives after its connection closed
// still meets the flow's own entry. Flush visits only the flows that
// hold segments, in first-seen order. That is the order segments of
// different flows go up the stack in, hence the order their ACKs are
// emitted in, hence every downstream event key — it must not follow
// this poll's arrival order.
type Presto struct {
	Eng *sim.Engine
	Out Output
	cfg PrestoConfig

	flows   map[packet.FlowKey]*prestoFlow
	sweepAt int // packet.SweepIdle's back-off mark
	// active lists the flows holding segments: Receive appends a flow
	// when its list becomes non-empty, Flush sorts the few newcomers into
	// first-seen order and drops the flows it drained.
	active []*prestoFlow
	seen   uint64 // flows created so far; the last first-seen ordinal
	timer  *sim.Timer
	stats  Stats
}

// NewPresto returns a Presto GRO handler.
func NewPresto(eng *sim.Engine, out Output, cfg PrestoConfig) *Presto {
	cfg.fill()
	p := &Presto{Eng: eng, Out: out, cfg: cfg, flows: make(map[packet.FlowKey]*prestoFlow)}
	p.timer = sim.NewTimer(eng, p.Flush)
	return p
}

// Receive implements Handler: merge p into an existing segment of its
// flow if contiguous within the same flowcell, else create a new
// segment at the head of the list (O(1) for the common in-order case,
// §3.2).
func (g *Presto) Receive(p *packet.Packet) {
	now := g.Eng.Now()
	if control(p) {
		g.stats.ControlOut++
		g.Out.DeliverSegment(segFromPacket(p, now))
		return
	}
	g.stats.PacketsIn++
	f, ok := g.flows[p.Flow]
	if !ok {
		packet.SweepIdle(g.flows, &g.sweepAt, now, flowLastSeen)
		g.seen++
		f = &prestoFlow{ord: g.seen}
		g.flows[p.Flow] = f
	}
	// Scan merge candidates from the highest start sequence down: the
	// common in-order packet extends the most recent (highest-seq)
	// segment, so the first probe usually hits.
	for i := len(f.segs) - 1; i >= 0; i-- {
		seg := f.segs[i]
		if mergeTail(seg, p, now) {
			g.stats.Merges++
			return
		}
		if mergeHead(seg, p, now) {
			g.stats.Merges++
			// The merge lowered seg.StartSeq; bubble it left to keep the
			// list sorted.
			for j := i; j > 0 && packet.SeqLT(f.segs[j].StartSeq, f.segs[j-1].StartSeq); j-- {
				f.segs[j], f.segs[j-1] = f.segs[j-1], f.segs[j]
			}
			return
		}
	}
	f.insertSeg(segFromPacket(p, now))
	if !f.listed {
		f.listed = true
		g.active = append(g.active, f)
	}
}

// flowLastSeen is the GRO table's input to the aging rule: a flow that
// holds segments stays.
func flowLastSeen(f *prestoFlow) (sim.Time, bool) { return f.lastSeen, !f.listed }

// Flush implements Handler: Algorithm 2's flush function, run at the
// end of every poll event (and again from a timer while segments are
// held). Its cost is proportional to the flows holding segments, not to
// the flows the handler has seen.
//
//prestolint:noalloc
func (g *Presto) Flush() {
	now := g.Eng.Now()
	var nextDeadline sim.Time = -1
	held := false
	// Flows held over from the last flush are already in first-seen
	// order; insertion-sort this poll's newcomers in behind them.
	a := g.active
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].ord < a[j-1].ord; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	live := a[:0]
	for _, f := range a {
		// The list is maintained sorted by start sequence on arrival
		// (insertSeg / the mergeHead bubble), so the walk needs no sort.
		if !f.init {
			// Seed flow state from the first (lowest-seq) segment.
			f.init = true
			f.lastFlowcell = f.segs[0].FlowcellID
			f.expSeq = f.segs[0].StartSeq
		}
		kept := f.segs[:0]
		e := g.holdBudget(f)
		for _, s := range f.segs {
			switch {
			case s.FlowcellID == f.lastFlowcell:
				// Lines 3-5: same flowcell. Any gap inside a flowcell is
				// loss (its packets share one path), so push immediately.
				reason := FlushInOrder
				if packet.SeqGT(s.StartSeq, f.expSeq) {
					reason = FlushLossGap
				}
				f.expSeq = packet.SeqMax(f.expSeq, s.EndSeq)
				g.stats.deliverData(g.Out, s, reason, now)
			case packet.SeqGT(s.FlowcellID, f.lastFlowcell):
				switch {
				case f.expSeq == s.StartSeq:
					// Lines 7-10: next flowcell starts exactly in order.
					if f.gapActive {
						// A boundary gap just resolved as pure reordering:
						// feed the resolution time into the estimator.
						f.observeResolution(float64(now - f.gapSince))
						f.gapActive = false
					}
					f.lastFlowcell = s.FlowcellID
					f.expSeq = s.EndSeq
					g.stats.deliverData(g.Out, s, FlushInOrder, now)
				case packet.SeqGT(f.expSeq, s.StartSeq):
					// Lines 11-13: overlap — a retransmitted first packet
					// of a new flowcell. Push so TCP reacts immediately.
					f.lastFlowcell = s.FlowcellID
					f.expSeq = packet.SeqMax(f.expSeq, s.EndSeq)
					g.stats.deliverData(g.Out, s, FlushOverlap, now)
				case now >= g.holdUntil(s, e):
					// Lines 14-18: held long enough — declare loss. The
					// elapsed hold still feeds the estimator: if this was
					// in fact slow reordering, the next hold is longer
					// (without this, the estimate could never grow past
					// alpha times itself and tail reordering would be
					// misread as loss forever).
					g.stats.TimeoutFires++
					if f.gapActive {
						f.observeResolution(float64(now - f.gapSince))
					}
					f.gapActive = false
					f.lastFlowcell = s.FlowcellID
					f.expSeq = s.EndSeq
					g.stats.deliverData(g.Out, s, FlushBoundaryTimeout, now)
				default:
					// Boundary gap, still within the adaptive hold: keep
					// the segment so in-flight packets can fill the gap.
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
				// Line 20: stale flowcell (late retransmission) — push
				// immediately.
				g.stats.deliverData(g.Out, s, FlushStale, now)
			}
		}
		f.segs = kept
		if len(kept) > 0 {
			live = append(live, f)
		} else {
			f.listed = false
			f.lastSeen = now
		}
	}
	clear(a[len(live):]) // drained flows must not be pinned by the reused backing array
	g.active = live
	if held {
		g.stats.ReorderHolds++
		delay := nextDeadline - now
		if delay < sim.Microsecond {
			delay = sim.Microsecond
		}
		if g.stats.tracer != nil {
			g.stats.tracer.GROHold(now, g.stats.host, g.HeldSegments(), now+delay)
		}
		g.timer.Reset(delay)
	} else {
		g.timer.Stop()
	}
}

// holdBudget returns the flow's effective reorder-time estimate: the
// Jacobson-style mean + 8·mdev once estimated, floored at minEWMA.
// (A method, not a per-Flush closure, so the flush walk stays
// allocation-free.)
func (g *Presto) holdBudget(f *prestoFlow) sim.Time {
	e := g.cfg.InitialEWMA
	if f.estimated {
		e = sim.Time(f.ewma + 8*f.mdev)
	}
	if e < minEWMA {
		e = minEWMA
	}
	return e
}

// holdUntil returns the instant segment s may be held to, given the
// flow's hold budget e: creation plus α·e, extended by the β merge
// bonus when a packet merged in recently.
func (g *Presto) holdUntil(s *packet.Segment, e sim.Time) sim.Time {
	deadline := s.CreatedAt + sim.Time(g.cfg.Alpha*float64(e))
	merged := s.LastMerge + sim.Time(float64(e)/beta)
	if merged > deadline {
		return merged
	}
	return deadline
}

// Stats implements Handler.
func (g *Presto) Stats() *Stats { return &g.stats }

// Alpha returns the handler's α (PrestoConfig.Alpha).
func (g *Presto) Alpha() float64 { return g.cfg.Alpha }

// Flows returns the number of flows the handler keeps state for: those
// that have sent data and have not aged out.
func (g *Presto) Flows() int { return len(g.flows) }

// HeldSegments returns the number of segments currently held across
// flows (zero when no reordering is in flight).
func (g *Presto) HeldSegments() int {
	n := 0
	for _, f := range g.active {
		n += len(f.segs)
	}
	return n
}
