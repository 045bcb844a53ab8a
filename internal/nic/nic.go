// Package nic models the host network interface and driver receive
// path: TSO segmentation on transmit (the mechanism that makes 64 KB
// flowcells cheap, §2.1), and on receive an RX ring, interrupt
// coalescing, and a CPU cost model hosting a GRO handler.
//
// The CPU model is what reproduces the paper's computational results:
// processing a poll batch occupies the (single) receive core for
//
//	perPoll + Σ(perPacket+handler overhead) + perByteNs·bytes + perSegment·segments + perEviction·evictions
//
// of simulated time, during which the ring keeps filling; sustained
// overload overflows the ring and drops packets. The handler overhead
// is prestoPerPacket when the hosted handler is Presto GRO and zero
// for any other. The constants are calibrated against §5: GRO disabled
// caps at ≈6 Gbps at 100% CPU; official GRO at line rate costs ≈63%,
// Presto GRO ≈69% (+6%); under reordering, official GRO's
// small-segment flood burns more CPU for half the throughput.
package nic

import (
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// The receive-path cost model, calibrated to the paper's measured
// operating points (see package comment).
const (
	perPoll    = 2 * sim.Microsecond   // fixed cost of a poll event
	perPacket  = 350 * sim.Nanosecond  // driver + GRO merge work per packet
	perSegment = 1100 * sim.Nanosecond // stack traversal per segment pushed up
	perByteNs  = 0.2                   // ns of copy/checksum work per payload byte
	// perEviction is the extra cost of a merge-failure push (stock GRO
	// ejecting a segment mid-merge: list churn, cold stack entry). This
	// is the computational half of the small-segment-flooding collapse
	// (§2.2) beyond the per-segment cost itself.
	perEviction = 3000 * sim.Nanosecond
	// prestoPerPacket is Presto GRO's extra per-packet work for its
	// multi-segment bookkeeping (~6% at line rate, Figure 6).
	prestoPerPacket = 80 * sim.Nanosecond
)

// Config tunes a NIC.
type Config struct {
	RingSize      int      // RX descriptor ring, in packets
	PollBudget    int      // max packets consumed per poll (NAPI budget)
	CoalesceCount int      // interrupt after this many packets...
	CoalesceDelay sim.Time // ...or this long after the first one
}

// DefaultConfig returns 10 GbE-like settings.
func DefaultConfig() Config {
	return Config{
		RingSize:      4096,
		PollBudget:    64,
		CoalesceCount: 32,
		CoalesceDelay: 20 * sim.Microsecond,
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.RingSize == 0 {
		c.RingSize = d.RingSize
	}
	if c.PollBudget == 0 {
		c.PollBudget = d.PollBudget
	}
	if c.CoalesceCount == 0 {
		c.CoalesceCount = d.CoalesceCount
	}
	if c.CoalesceDelay == 0 {
		c.CoalesceDelay = d.CoalesceDelay
	}
}

// Stats counts NIC activity.
type Stats struct {
	TxSegments uint64 // TSO writes accepted
	TxPackets  uint64 // MTU packets emitted
	RxPackets  uint64 // packets accepted into the ring
	RxDrops    uint64 // ring-overflow drops (receiver livelock)
	Polls      uint64
	BusyTime   sim.Time // accumulated CPU busy time
	MaxRing    int      // RX ring occupancy watermark
}

// NIC is one host's interface. It implements fabric.Handler on the
// receive side.
type NIC struct {
	eng  *sim.Engine
	net  *fabric.Network
	pool *packet.Pool // arena of this host's shard
	host packet.HostID
	cfg  Config

	gro     gro.Handler
	pktCost sim.Time // perPacket plus the hosted handler's overhead
	stage   *stagingOutput

	ring     packet.Ring       // RX descriptor ring
	staged   []*packet.Segment // segments awaiting the current poll's completion
	doneFn   func()            // pollDone bound once, so poll() doesn't allocate a closure
	busy     bool
	intTimer *sim.Timer
	intArmed bool
	tracer   *telemetry.Tracer

	Stats Stats
}

// stagingOutput buffers GRO output during a poll so delivery happens
// when the batch's CPU cost has elapsed; outside a poll (GRO hold
// timers) it forwards directly. Staging buffers are recycled across
// polls (only one poll is ever outstanding per NIC).
type stagingOutput struct {
	up      gro.Output
	buf     []*packet.Segment
	staging bool
}

func (s *stagingOutput) DeliverSegment(seg *packet.Segment) {
	if s.staging {
		s.buf = append(s.buf, seg)
		return
	}
	s.up.DeliverSegment(seg)
}

// take hands the staged segments to the caller; recycle returns the
// buffer once its segments are delivered.
func (s *stagingOutput) take() []*packet.Segment {
	b := s.buf
	s.buf = nil
	return b
}

func (s *stagingOutput) recycle(b []*packet.Segment) {
	for i := range b {
		b[i] = nil // segments live on up the stack; the buffer must not pin them
	}
	if s.buf == nil {
		s.buf = b[:0]
	}
}

// New creates a NIC for host h. makeGRO constructs the receive-offload
// handler around the NIC's staging output, which forwards to up.
func New(eng *sim.Engine, net *fabric.Network, h packet.HostID, up gro.Output, makeGRO func(out gro.Output) gro.Handler, cfg Config) *NIC {
	cfg.fill()
	n := &NIC{eng: eng, net: net, pool: net.PacketPool(h), host: h, cfg: cfg}
	n.stage = &stagingOutput{up: up}
	n.gro = makeGRO(n.stage)
	n.pktCost = perPacket
	if _, ok := n.gro.(*gro.Presto); ok {
		n.pktCost += prestoPerPacket
	}
	n.intTimer = sim.NewTimer(eng, n.interrupt)
	n.doneFn = n.pollDone
	return n
}

// GRO returns the hosted receive-offload handler.
func (n *NIC) GRO() gro.Handler { return n.gro }

// SetTracer attaches a structured event tracer to this NIC and its GRO
// handler (nil disables, the default).
func (n *NIC) SetTracer(tr *telemetry.Tracer) {
	n.tracer = tr
	n.gro.Stats().SetTracer(tr, int32(n.host))
}

// TelemetrySnapshot implements a telemetry probe: NIC counters plus the
// hosted GRO handler's flush-reason breakdown.
func (n *NIC) TelemetrySnapshot() map[string]any {
	st := n.gro.Stats()
	return map[string]any{
		"tx_segments":   n.Stats.TxSegments,
		"tx_packets":    n.Stats.TxPackets,
		"rx_packets":    n.Stats.RxPackets,
		"rx_drops":      n.Stats.RxDrops,
		"polls":         n.Stats.Polls,
		"busy_ns":       int64(n.Stats.BusyTime),
		"max_ring":      n.Stats.MaxRing,
		"gro_packets":   st.PacketsIn,
		"gro_segments":  st.SegmentsOut,
		"gro_merges":    st.Merges,
		"gro_evictions": st.Evictions,
		"gro_reasons":   st.ReasonCounts(),
	}
}

// SendSegment performs TSO: split a ≤64 KB segment into MTU packets,
// replicating the shadow MAC and flowcell ID onto each (exactly what
// the NIC hardware does with header fields, §3.1), and inject them
// onto the host's access link. The packets come from the shard's arena.
//
//prestolint:noalloc
func (n *NIC) SendSegment(seg *packet.Segment) {
	n.Stats.TxSegments++
	total := seg.Len()
	if total == 0 {
		// Pure ACK / control.
		p := n.pool.Get()
		*p = packet.Packet{
			SrcMAC: seg.SrcMAC, DstMAC: seg.DstMAC,
			Flow: seg.Flow, Seq: seg.StartSeq, Ack: seg.Ack,
			Flags: seg.Flags, Sack: seg.Sack,
			FlowcellID: seg.FlowcellID, SentAt: seg.SentAt,
			Retrans: seg.Retrans, Probe: seg.Probe,
			EchoCE: seg.EchoCE, EchoTotal: seg.EchoTotal,
		}
		n.Stats.TxPackets++
		n.net.SendFromHost(n.host, p)
		return
	}
	mss := packet.MSS
	for off := 0; off < total; off += mss {
		l := total - off
		if l > mss {
			l = mss
		}
		p := n.pool.Get()
		*p = packet.Packet{
			SrcMAC: seg.SrcMAC, DstMAC: seg.DstMAC,
			Flow: seg.Flow, Seq: seg.StartSeq + uint32(off),
			Ack: seg.Ack, Flags: seg.Flags &^ packet.FlagPSH, Payload: l,
			FlowcellID: seg.FlowcellID, SentAt: seg.SentAt,
			Retrans: seg.Retrans, Probe: seg.Probe,
		}
		if off+l == total {
			p.Flags |= seg.Flags & packet.FlagPSH
		}
		n.Stats.TxPackets++
		n.net.SendFromHost(n.host, p)
	}
}

// HandlePacket implements fabric.Handler: packets arriving from the
// wire enter the RX ring. The NIC owns p from here on and returns it to
// the arena on overflow or once GRO has consumed it.
//
//prestolint:noalloc
func (n *NIC) HandlePacket(p *packet.Packet) {
	if n.ring.Len() >= n.cfg.RingSize {
		// Receiver livelock: the CPU can't drain the ring fast enough.
		n.Stats.RxDrops++
		n.tracer.RingDrop(n.eng.Now(), int32(n.host), n.ring.Len())
		n.pool.Put(p)
		return
	}
	n.ring.Push(p)
	if n.ring.Len() > n.Stats.MaxRing {
		n.Stats.MaxRing = n.ring.Len()
	}
	n.Stats.RxPackets++
	if n.busy || n.intArmed {
		if n.intArmed && n.ring.Len() >= n.cfg.CoalesceCount {
			n.intTimer.Stop()
			n.intArmed = false
			n.interrupt()
		}
		return
	}
	// Idle: arm the coalescing timer (or fire now if a burst landed).
	if n.ring.Len() >= n.cfg.CoalesceCount {
		n.interrupt()
		return
	}
	n.intArmed = true
	n.intTimer.Reset(n.cfg.CoalesceDelay)
}

// interrupt starts a poll if the CPU is free.
func (n *NIC) interrupt() {
	n.intArmed = false
	if n.busy || n.ring.Len() == 0 {
		return
	}
	n.poll()
}

// poll consumes up to PollBudget packets, runs GRO over them, and
// occupies the CPU for the batch's modeled cost; the GRO output is
// delivered when the cost has elapsed (pollDone). If the ring is
// non-empty at completion, polling continues immediately (NAPI-style).
func (n *NIC) poll() {
	batch := min(n.cfg.PollBudget, n.ring.Len())
	n.Stats.Polls++
	n.busy = true

	st := n.gro.Stats()
	segsBefore := st.SegmentsOut + st.ControlOut
	evBefore := st.Evictions
	bytes := 0
	n.stage.staging = true
	for i := 0; i < batch; i++ {
		p := n.ring.Pop()
		bytes += p.Payload
		n.gro.Receive(p)
		n.pool.Put(p) // every GRO flavour copies what it keeps
	}
	n.gro.Flush()
	n.stage.staging = false
	segs := (st.SegmentsOut + st.ControlOut) - segsBefore
	evictions := st.Evictions - evBefore

	cost := perPoll +
		sim.Time(batch)*n.pktCost +
		sim.Time(segs)*perSegment +
		sim.Time(evictions)*perEviction +
		sim.Time(float64(bytes)*perByteNs)
	n.Stats.BusyTime += cost

	// The busy flag guarantees a single outstanding poll, so the staged
	// segments ride in a field and the completion callback is the
	// pre-bound doneFn — no per-poll closure.
	n.staged = n.stage.take()
	n.eng.Schedule(cost, n.doneFn)
}

// pollDone delivers the staged GRO output once the poll's CPU cost has
// elapsed, then decides whether to keep polling.
func (n *NIC) pollDone() {
	staged := n.staged
	n.staged = nil
	for _, seg := range staged {
		n.stage.up.DeliverSegment(seg)
	}
	n.stage.recycle(staged)
	n.busy = false
	// NAPI-style continuation: stay in polling mode only while the
	// backlog justifies it; otherwise return to interrupt
	// coalescing so batches stay large and the per-poll cost
	// amortizes.
	if n.ring.Len() >= n.cfg.CoalesceCount {
		n.poll()
	} else if n.ring.Len() > 0 && !n.intArmed {
		n.intArmed = true
		n.intTimer.Reset(n.cfg.CoalesceDelay)
	}
}

// Utilization returns the fraction of the window [since, now] the
// receive CPU was busy, given the busy time recorded at the window
// start.
func (n *NIC) Utilization(busyAtStart, windowStart sim.Time) float64 {
	elapsed := n.eng.Now() - windowStart
	if elapsed <= 0 {
		return 0
	}
	return float64(n.Stats.BusyTime-busyAtStart) / float64(elapsed)
}
