// Package tcp implements the transport endpoints the simulator's hosts
// run: a TCP sender/receiver with CUBIC or Reno congestion control,
// SACK-based recovery, duplicate-ACK fast retransmit, tail-loss
// probes, and RFC 6298 retransmission timeouts (200 ms minimum, the
// Linux default the paper's mice-flow timeouts hinge on).
//
// Endpoints hand TSO-sized segments (≤64 KB) to a Downstream — the
// vSwitch, which runs Algorithm 1 over them — and receive segments
// pushed up by GRO. Reordering therefore affects the endpoint exactly
// as it does real TCP: dup-ACKs and spurious fast retransmits, unless
// the GRO layer masks it (§2.2).
package tcp

import (
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// Downstream accepts outgoing segments from an endpoint (the vSwitch
// datapath on a host).
type Downstream interface {
	Send(seg *packet.Segment)
}

// Linux's window and loss-recovery settings, as on the paper's
// testbed. Every endpoint sends packet.MSS-byte payloads.
const (
	initCwndMSS  = 10                    // initial window in MSS
	minRTO       = 200 * sim.Millisecond // Linux's RTO floor
	dupAckThresh = 3                     // classic fast-retransmit threshold
)

// Config tunes an Endpoint. Zero fields take defaults matching the
// paper's testbed settings (CUBIC, SACK on).
type Config struct {
	MaxSeg  int    // max TSO write (the 64 KB flowcell size)
	MaxCwnd int    // cwnd/receive-window cap in bytes
	CC      string // "cubic" (default), "reno", or "dctcp"
	// Handshake requires a SYN/SYN-ACK exchange before data flows
	// (default off: the paper's experiments use pre-established
	// long-lived connections).
	Handshake bool
	// ISS is the initial sequence number (default 1). Set near 2^32 to
	// exercise wraparound end to end.
	ISS uint32
}

// DefaultConfig returns the experiment settings from §4.
func DefaultConfig() Config {
	return Config{
		MaxSeg:  packet.MaxSegSize,
		MaxCwnd: 1 << 20,
		CC:      "cubic",
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.MaxSeg == 0 {
		c.MaxSeg = d.MaxSeg
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = d.MaxCwnd
	}
	if c.CC == "" {
		c.CC = d.CC
	}
}

// Stats counts endpoint activity.
type Stats struct {
	BytesSent       uint64 // first-transmission payload bytes
	BytesAcked      uint64 // cumulatively acknowledged payload bytes
	BytesDelivered  uint64 // in-order payload bytes delivered to the app
	SegmentsSent    uint64
	Retransmits     uint64 // fast retransmissions
	Timeouts        uint64 // RTO fires
	Probes          uint64 // tail-loss probes sent
	DupAcks         uint64 // duplicate ACKs received
	OOOSegments     uint64 // data segments arriving out of order
	AcksSent        uint64
	SpuriousRecover uint64 // recoveries entered while reordering only
}

type sentRec struct {
	endSeq uint32
	at     sim.Time
}

// Endpoint is one direction of a TCP connection: it sends data on
// flow and receives data+ACKs on flow.Reverse(). A bidirectional
// connection is a pair of endpoints.
type Endpoint struct {
	eng    *sim.Engine
	cfg    Config
	flow   packet.FlowKey
	down   Downstream
	cc     CongestionControl
	tracer *telemetry.Tracer // retransmit and cwnd events (nil: off)

	// Sender state.
	iss         uint32
	sndUna      uint32
	sndNxt      uint32
	appLimit    uint32 // one past the last byte the app has written
	unlimited   bool
	cwnd        float64
	ssthresh    float64
	dupacks     int
	sacks       scoreboard
	inRec       bool
	recoverPt   uint32
	rexmitHint  uint32   // next seq eligible for retransmission this recovery
	unaRexmitAt sim.Time // when the hole at snd.una was last retransmitted
	rtoTimer    *sim.Timer
	backoff     uint
	probeTimer  *sim.Timer // tail loss probe (TLP), kernel 3.10+
	ptoBackoff  uint
	srtt        sim.Time
	rttvar      sim.Time
	timings     []sentRec
	karnUntil   uint32 // samples at or below this endSeq are ambiguous

	// Receiver state.
	rcvNxt uint32
	ooo    scoreboard
	// ECN accounting (DCTCP): data packets seen and how many carried
	// CE, echoed back on every ACK.
	rcvTotalPkts uint64
	rcvCEPkts    uint64

	// DCTCP sender state (active when cfg.CC == "dctcp").
	dctcp        bool
	dctcpAlpha   float64
	lastEchoCE   uint64
	lastEchoTot  uint64
	dctcpWindEnd uint32

	// Connection lifecycle (handshake.go).
	hs         handshakeState
	hsSentAt   sim.Time
	finSent    bool
	onShutdown func()

	// Probe marks all outgoing segments as latency probes (sockperf
	// style), which bypass GRO merging.
	Probe bool

	// OnDelivered fires whenever in-order delivery advances, with the
	// total bytes delivered so far (app-level ACK hooks, FCT timing).
	OnDelivered func(total uint64)
	// OnAcked fires when cumulative ACK advances, with total bytes
	// acked.
	OnAcked func(total uint64)

	Stats Stats
}

// New creates an endpoint sending on flow through down.
func New(eng *sim.Engine, flow packet.FlowKey, down Downstream, cfg Config) *Endpoint {
	cfg.fill()
	iss := cfg.ISS
	if iss == 0 {
		iss = 1
	}
	e := &Endpoint{
		eng:      eng,
		cfg:      cfg,
		flow:     flow,
		down:     down,
		cc:       NewCC(cfg.CC),
		iss:      iss,
		sndUna:   iss,
		sndNxt:   iss,
		appLimit: iss,
		rcvNxt:   iss,
		cwnd:     float64(initCwndMSS * packet.MSS),
		ssthresh: float64(cfg.MaxCwnd),
	}
	e.rtoTimer = sim.NewTimer(eng, e.onRTO)
	e.probeTimer = sim.NewTimer(eng, e.onProbeTimeout)
	e.dctcp = cfg.CC == "dctcp"
	if cfg.Handshake {
		e.hs = hsIdle
	}
	return e
}

// SetTracer attaches a structured event tracer (nil disables, the
// default). Retransmit and cwnd events are attributed to the flow's
// source host, the host whose stack runs this endpoint.
func (e *Endpoint) SetTracer(tr *telemetry.Tracer) { e.tracer = tr }

// Flow returns the endpoint's outgoing flow key.
func (e *Endpoint) Flow() packet.FlowKey { return e.flow }

// Cwnd returns the congestion window in bytes.
func (e *Endpoint) Cwnd() float64 { return e.cwnd }

// SetCwnd overrides the congestion window (used by coupled controllers).
func (e *Endpoint) SetCwnd(w float64) {
	if w < float64(packet.MSS) {
		w = float64(packet.MSS)
	}
	e.cwnd = w
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (e *Endpoint) SRTT() sim.Time { return e.srtt }

// CC returns the congestion control the endpoint was configured with
// (Config.CC, after defaults).
func (e *Endpoint) CC() string { return e.cfg.CC }

// SetCongestionControl swaps the congestion controller (used by MPTCP
// to couple subflows). Call before any data is in flight.
func (e *Endpoint) SetCongestionControl(cc CongestionControl) { e.cc = cc }

// Inflight returns the estimated outstanding (un-SACKed) bytes.
func (e *Endpoint) Inflight() int { return e.inflight() }

// Unsent returns bytes written by the app but not yet transmitted.
func (e *Endpoint) Unsent() int {
	if e.unlimited {
		return 1 << 30
	}
	n := int(packet.SeqDiff(e.appLimit, e.sndNxt))
	if n < 0 {
		n = 0
	}
	return n
}

// MSS returns the payload per MTU packet (packet.MSS).
func (e *Endpoint) MSS() int { return packet.MSS }

// InSlowStart reports whether the sender is below ssthresh.
func (e *Endpoint) InSlowStart() bool { return e.cwnd < e.ssthresh }

// Write appends n bytes of application data to the send stream.
func (e *Endpoint) Write(n int) {
	e.appLimit += uint32(n)
	e.trySend()
}

// SetUnlimited makes the endpoint an elephant: it always has data to
// send.
func (e *Endpoint) SetUnlimited(on bool) {
	e.unlimited = on
	if on {
		e.trySend()
	}
}

// Delivered returns in-order bytes delivered to the application.
func (e *Endpoint) Delivered() uint64 { return e.Stats.BytesDelivered }

// Acked returns cumulatively acknowledged bytes.
func (e *Endpoint) Acked() uint64 { return e.Stats.BytesAcked }

// Done reports whether all written data has been acknowledged.
func (e *Endpoint) Done() bool { return !e.unlimited && e.sndUna == e.appLimit }

// inflight estimates outstanding bytes not yet SACKed (the pipe).
func (e *Endpoint) inflight() int {
	out := int(packet.SeqDiff(e.sndNxt, e.sndUna))
	out -= e.sacks.sackedAbove(e.sndUna)
	if out < 0 {
		out = 0
	}
	return out
}

// trySend transmits new data while the window allows.
func (e *Endpoint) trySend() {
	switch e.hs {
	case hsIdle:
		// First send in handshake mode: open the connection instead.
		e.hsSentAt = e.eng.Now()
		e.sendSYN()
		return
	case hsSynSent:
		return // data queues until the SYN-ACK arrives
	}
	for {
		var remaining int
		if e.unlimited {
			remaining = e.cfg.MaxSeg
		} else {
			remaining = int(packet.SeqDiff(e.appLimit, e.sndNxt))
		}
		if remaining <= 0 {
			break
		}
		avail := int(e.cwnd) - e.inflight()
		if avail <= 0 {
			break
		}
		n := remaining
		if n > e.cfg.MaxSeg {
			n = e.cfg.MaxSeg
		}
		if n > avail {
			// Send a partial segment only if nothing is outstanding or
			// at least an MSS fits (avoid silly-window dribble).
			if avail < packet.MSS && e.inflight() > 0 {
				break
			}
			n = avail
		}
		e.sendData(e.sndNxt, n, false)
		e.sndNxt += uint32(n)
		e.Stats.BytesSent += uint64(n)
	}
	e.armRTO()
}

// sendData emits one TSO segment [seq, seq+n).
func (e *Endpoint) sendData(seq uint32, n int, retrans bool) {
	now := e.eng.Now()
	seg := &packet.Segment{
		Flow:      e.flow,
		StartSeq:  seq,
		EndSeq:    seq + uint32(n),
		Packets:   (n + packet.MSS - 1) / packet.MSS,
		Retrans:   retrans,
		CreatedAt: now,
		LastMerge: now,
		Flags:     packet.FlagACK,
		Ack:       e.rcvNxt,
		SentAt:    now,
		Probe:     e.Probe,
	}
	e.Stats.SegmentsSent++
	if retrans {
		if packet.SeqGT(seg.EndSeq, e.karnUntil) {
			e.karnUntil = seg.EndSeq
		}
		if seq == e.sndUna {
			e.unaRexmitAt = now
		}
	} else {
		e.timings = append(e.timings, sentRec{endSeq: seg.EndSeq, at: now})
		if len(e.timings) > 4096 {
			e.timings = e.timings[1024:]
		}
	}
	e.down.Send(seg)
}

// sendAck emits a pure ACK reflecting the current receive state.
func (e *Endpoint) sendAck() {
	e.Stats.AcksSent++
	now := e.eng.Now()
	e.down.Send(&packet.Segment{
		Flow:      e.flow,
		StartSeq:  e.sndNxt,
		EndSeq:    e.sndNxt,
		CreatedAt: now,
		LastMerge: now,
		Flags:     packet.FlagACK,
		Ack:       e.rcvNxt,
		Sack:      e.ooo.recent(3),
		SentAt:    now,
		Probe:     e.Probe,
		EchoCE:    e.rcvCEPkts,
		EchoTotal: e.rcvTotalPkts,
	})
}

// DeliverSegment is the receive entry point: GRO (or the host stack)
// pushes segments of the reverse flow here.
func (e *Endpoint) DeliverSegment(s *packet.Segment) {
	if s.Flags.Has(packet.FlagSYN) {
		if e.handleHandshake(s) {
			return
		}
	}
	if s.Len() > 0 {
		e.receiveData(s)
	}
	if s.Flags.Has(packet.FlagACK) {
		e.processAck(s)
	}
	if s.Flags.Has(packet.FlagFIN) {
		e.handleFIN(s)
	}
}

func (e *Endpoint) receiveData(s *packet.Segment) {
	e.rcvTotalPkts += uint64(s.Packets)
	e.rcvCEPkts += uint64(s.CEPackets)
	start, end := s.StartSeq, s.EndSeq
	if packet.SeqLEQ(end, e.rcvNxt) {
		// Entirely duplicate: ACK again so the sender sees progress.
		e.sendAck()
		return
	}
	if packet.SeqLT(start, e.rcvNxt) {
		start = e.rcvNxt
	}
	if start == e.rcvNxt {
		e.rcvNxt = end
		// Pull any out-of-order ranges that are now contiguous.
		e.ooo.prune(e.rcvNxt)
		for {
			if len(e.ooo.blocks) == 0 || e.ooo.blocks[0].Start != e.rcvNxt {
				break
			}
			e.rcvNxt = e.ooo.blocks[0].End
			e.ooo.prune(e.rcvNxt)
		}
		delivered := uint64(packet.SeqDiff(e.rcvNxt, e.iss))
		e.Stats.BytesDelivered = delivered
		if e.OnDelivered != nil {
			e.OnDelivered(delivered)
		}
	} else {
		e.Stats.OOOSegments++
		e.ooo.add(start, end)
	}
	e.sendAck()
}

func (e *Endpoint) processAck(s *packet.Segment) {
	ack := s.Ack
	for _, b := range s.Sack {
		e.sacks.add(b.Start, b.End)
	}
	if e.dctcp {
		e.dctcpUpdate(s, ack)
	}
	switch {
	case packet.SeqGT(ack, e.sndUna):
		acked := int(packet.SeqDiff(ack, e.sndUna))
		e.sndUna = ack
		e.dupacks = 0
		e.sacks.prune(ack)
		e.sampleRTT(ack)
		e.backoff = 0
		e.ptoBackoff = 0
		e.Stats.BytesAcked = uint64(packet.SeqDiff(e.sndUna, e.iss))

		if e.inRec {
			if packet.SeqGEQ(ack, e.recoverPt) {
				e.inRec = false
				e.cwnd = e.ssthresh
			} else {
				// Partial ACK: the hole right at the new snd.una is lost
				// too — retransmit it immediately (NewReno).
				if packet.SeqLT(e.rexmitHint, ack) {
					e.rexmitHint = ack
				}
				e.retransmitHole()
			}
		} else if e.cwnd < e.ssthresh {
			// Slow start.
			e.cwnd += float64(acked)
			if e.cwnd > e.ssthresh {
				e.cwnd = e.ssthresh
			}
		} else {
			e.cwnd = e.cc.OnAck(e, acked)
		}
		e.clampCwnd()
		if e.OnAcked != nil {
			e.OnAcked(e.Stats.BytesAcked)
		}
		e.maybeFIN()
		if e.sndUna == e.sndNxt {
			e.rtoTimer.Stop()
			e.probeTimer.Stop()
		} else {
			e.armRTO()
		}
		e.trySend()

	case ack == e.sndUna && packet.SeqGT(e.sndNxt, e.sndUna) && s.Len() == 0:
		// Pure duplicate ACK with data outstanding.
		e.dupacks++
		e.Stats.DupAcks++
		if e.dupacks >= dupAckThresh && !e.inRec {
			e.enterRecovery()
		} else if e.inRec {
			// Window inflation keeps the pipe full during recovery.
			e.cwnd += float64(packet.MSS)
			e.clampCwnd()
			// Lost-retransmission heuristic (RACK-style): dup-ACKs keep
			// arriving but the front hole hasn't budged for well over an
			// RTT since we last resent it — the retransmission itself
			// died. Resend it instead of stalling until the RTO.
			if wait := 2 * e.srtt; wait > 0 && e.eng.Now()-e.unaRexmitAt > wait && packet.SeqGT(e.rexmitHint, e.sndUna) {
				e.rexmitHint = e.sndUna
			}
			e.retransmitHole()
			e.trySend()
		}
	}
}

// dctcpUpdate implements DCTCP's ECN response (Alizadeh et al.): fold
// the CE fraction of each ACK into alpha (g = 1/16) and, once per
// window, scale cwnd by (1 - alpha/2). Loss still halves via the
// normal recovery path.
func (e *Endpoint) dctcpUpdate(s *packet.Segment, ack uint32) {
	if s.EchoTotal == 0 {
		return
	}
	dTot := s.EchoTotal - e.lastEchoTot
	dCE := s.EchoCE - e.lastEchoCE
	if dTot == 0 || s.EchoTotal < e.lastEchoTot {
		return
	}
	e.lastEchoTot = s.EchoTotal
	e.lastEchoCE = s.EchoCE
	const g = 1.0 / 16
	frac := float64(dCE) / float64(dTot)
	e.dctcpAlpha = (1-g)*e.dctcpAlpha + g*frac
	if packet.SeqGEQ(ack, e.dctcpWindEnd) {
		if e.dctcpAlpha > 1e-6 {
			e.cwnd *= 1 - e.dctcpAlpha/2
			e.clampCwnd()
			if e.cwnd < e.ssthresh {
				e.ssthresh = e.cwnd
			}
		}
		e.dctcpWindEnd = e.sndNxt
	}
}

func (e *Endpoint) enterRecovery() {
	e.inRec = true
	e.recoverPt = e.sndNxt
	e.rexmitHint = e.sndUna
	e.ssthresh = e.cc.OnLoss(e)
	if e.ssthresh < 2*float64(packet.MSS) {
		e.ssthresh = 2 * float64(packet.MSS)
	}
	e.cwnd = e.ssthresh + float64(dupAckThresh*packet.MSS)
	e.clampCwnd()
	e.Stats.Retransmits++
	e.tracer.Retransmit(e.eng.Now(), int32(e.flow.Src.Host), e.sndUna, int64(e.cwnd), "fast")
	e.retransmitHole()
}

// retransmitHole resends the next unSACKed, not-yet-retransmitted
// range (one MSS at a time, SACK pipe style): each dup-ACK advances
// through the holes instead of re-sending the first one forever.
func (e *Endpoint) retransmitHole() {
	from := e.rexmitHint
	if packet.SeqLT(from, e.sndUna) {
		from = e.sndUna
	}
	start, end, ok := e.sacks.firstHole(from)
	if !ok {
		if from != e.sndUna {
			// Every known hole this recovery has been retransmitted;
			// wait for partial ACKs or the RTO backstop.
			return
		}
		start, end = e.sndUna, e.sndUna+uint32(packet.MSS)
		if packet.SeqGT(start+uint32(packet.MSS), e.sndNxt) {
			end = e.sndNxt
		}
	}
	n := int(packet.SeqDiff(end, start))
	if n > packet.MSS {
		n = packet.MSS
	}
	if n <= 0 {
		return
	}
	e.sendData(start, n, true)
	e.rexmitHint = start + uint32(n)
	e.armRTO()
}

func (e *Endpoint) onRTO() {
	if e.hs == hsSynSent {
		// Lost SYN: resend with backoff.
		e.Stats.Timeouts++
		if e.backoff < 12 {
			e.backoff++
		}
		e.sendSYN()
		return
	}
	if e.sndUna == e.sndNxt {
		return
	}
	e.Stats.Timeouts++
	e.tracer.Retransmit(e.eng.Now(), int32(e.flow.Src.Host), e.sndUna, int64(e.cwnd), "rto")
	e.ssthresh = e.cwnd / 2
	if e.ssthresh < 2*float64(packet.MSS) {
		e.ssthresh = 2 * float64(packet.MSS)
	}
	e.cwnd = float64(packet.MSS)
	e.cc.OnTimeout(e)
	e.inRec = false
	e.dupacks = 0
	// Conservative: forget SACK state (reneging-safe) and rewind
	// snd.nxt to snd.una — everything outstanding is presumed lost and
	// will be resent under slow start as ACKs return (go-back-N, the
	// pre-RACK Linux behaviour). Karn's rule voids RTT samples for the
	// rewound range.
	e.sacks.clear()
	if packet.SeqGT(e.sndNxt, e.karnUntil) {
		e.karnUntil = e.sndNxt
	}
	e.sndNxt = e.sndUna
	e.timings = e.timings[:0]
	n := packet.MSS
	if e.unlimited || int(packet.SeqDiff(e.appLimit, e.sndNxt)) >= n {
		e.sendData(e.sndNxt, n, true)
		e.sndNxt += uint32(n)
	} else if rem := int(packet.SeqDiff(e.appLimit, e.sndNxt)); rem > 0 {
		e.sendData(e.sndNxt, rem, true)
		e.sndNxt += uint32(rem)
	}
	if e.backoff < 12 {
		e.backoff++
	}
	e.armRTO()
}

func (e *Endpoint) armRTO() {
	if e.sndUna == e.sndNxt {
		return
	}
	e.rtoTimer.Reset(e.rto())
	e.probeTimer.Reset(e.pto())
}

// pto returns the tail-loss-probe timeout: max(2·SRTT, 10 ms), 40 ms
// with no RTT sample yet (Linux TLP constants), doubled per
// consecutive probe without progress.
func (e *Endpoint) pto() sim.Time {
	pto := 40 * sim.Millisecond
	if e.srtt > 0 {
		pto = 2 * e.srtt
		if pto < 10*sim.Millisecond {
			pto = 10 * sim.Millisecond
		}
	}
	return pto << e.ptoBackoff
}

// onProbeTimeout fires when ACKs have stopped with data outstanding —
// the pipe drained with losses unrepaired (e.g. the whole tail of a
// window died, or a retransmission died and dup-ACKs ran out). Probe
// by resending the first hole: its delivery restarts the ACK clock
// and SACK-driven recovery, long before the RTO backstop.
func (e *Endpoint) onProbeTimeout() {
	if e.sndUna == e.sndNxt {
		return
	}
	e.Stats.Probes++
	e.tracer.Retransmit(e.eng.Now(), int32(e.flow.Src.Host), e.sndUna, int64(e.cwnd), "probe")
	n := int(packet.SeqDiff(e.sndNxt, e.sndUna))
	if n > packet.MSS {
		n = packet.MSS
	}
	e.sendData(e.sndUna, n, true)
	if e.ptoBackoff < 8 {
		e.ptoBackoff++
	}
	e.probeTimer.Reset(e.pto())
}

func (e *Endpoint) rto() sim.Time {
	rto := minRTO
	if e.srtt > 0 {
		est := e.srtt + 4*e.rttvar
		if est > rto {
			rto = est
		}
	}
	return rto << e.backoff
}

func (e *Endpoint) sampleRTT(ack uint32) {
	now := e.eng.Now()
	var sample sim.Time = -1
	i := 0
	for ; i < len(e.timings); i++ {
		rec := e.timings[i]
		if packet.SeqGT(rec.endSeq, ack) {
			break
		}
		if packet.SeqGT(rec.endSeq, e.karnUntil) {
			sample = now - rec.at
		}
	}
	e.timings = e.timings[i:]
	if sample < 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
		e.tracer.Cwnd(now, int32(e.flow.Src.Host), int64(e.cwnd), e.srtt)
		return
	}
	// RFC 6298 smoothing.
	d := e.srtt - sample
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + sample) / 8
	e.tracer.Cwnd(now, int32(e.flow.Src.Host), int64(e.cwnd), e.srtt)
}

func (e *Endpoint) clampCwnd() {
	if e.cwnd > float64(e.cfg.MaxCwnd) {
		e.cwnd = float64(e.cfg.MaxCwnd)
	}
	if e.cwnd < float64(packet.MSS) {
		e.cwnd = float64(packet.MSS)
	}
}
