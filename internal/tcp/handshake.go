package tcp

import (
	"presto/internal/packet"
	"presto/internal/sim"
)

// Connection lifecycle: the experiments run over pre-established
// long-lived connections (§4/§6: "each server establishes a long-lived
// TCP connection with every other server"), so handshakes are off by
// default. Enabling Config.Handshake makes an endpoint complete a
// SYN / SYN-ACK exchange before data flows — adding the real extra RTT
// to cold-start flows — and Shutdown sends FIN once all data is acked.
//
// The model is deliberately compact: SYN consumes one sequence number,
// the three-way handshake's final ACK is the first data packet (or a
// bare ACK for an idle connection), and simultaneous-open/half-close
// subtleties that the evaluation never exercises are out of scope.

// handshakeState tracks connection establishment.
type handshakeState int

const (
	// hsEstablished is the default (pre-established) state.
	hsEstablished handshakeState = iota
	hsIdle                       // handshake mode, nothing sent yet
	hsSynSent                    // active opener, SYN in flight
	hsSynReceived                // passive opener, SYN-ACK in flight
)

// Established reports whether data transfer may proceed.
func (e *Endpoint) Established() bool { return e.hs == hsEstablished }

// sendSYN emits the active opener's SYN.
func (e *Endpoint) sendSYN() {
	e.hs = hsSynSent
	now := e.eng.Now()
	e.down.Send(&packet.Segment{
		Flow:      e.flow,
		StartSeq:  e.iss - 1, // SYN occupies the sequence number before ISS
		EndSeq:    e.iss - 1,
		CreatedAt: now,
		LastMerge: now,
		Flags:     packet.FlagSYN,
		SentAt:    now,
		Probe:     e.Probe,
	})
	e.rtoTimer.Reset(e.rto())
}

// handleHandshake processes SYN and SYN-ACK segments. It returns true
// when the segment was consumed by handshake logic.
func (e *Endpoint) handleHandshake(s *packet.Segment) bool {
	switch {
	case s.Flags.Has(packet.FlagSYN) && s.Flags.Has(packet.FlagACK):
		// Active opener receiving SYN-ACK: established; push any queued
		// data out.
		if e.hs == hsSynSent {
			e.hs = hsEstablished
			e.sampleHandshakeRTT(s)
			e.rtoTimer.Stop()
			e.sendAck()
			e.trySend()
		}
		return true
	case s.Flags.Has(packet.FlagSYN):
		// Passive opener: answer with SYN-ACK. Established optimistically
		// (the final ACK of the three-way handshake is implicit in the
		// first data or ACK segment that follows).
		e.hs = hsEstablished
		now := e.eng.Now()
		e.down.Send(&packet.Segment{
			Flow:      e.flow,
			StartSeq:  e.iss - 1,
			EndSeq:    e.iss - 1,
			CreatedAt: now,
			LastMerge: now,
			Flags:     packet.FlagSYN | packet.FlagACK,
			Ack:       e.rcvNxt,
			SentAt:    now,
			Probe:     e.Probe,
		})
		return true
	}
	return false
}

// sampleHandshakeRTT seeds SRTT from the SYN round trip.
func (e *Endpoint) sampleHandshakeRTT(s *packet.Segment) {
	if s.SentAt <= 0 {
		return
	}
	// SentAt is the peer's SYN-ACK transmit time, not ours; fall back
	// to a direct measure only when the engine time moved.
	if e.srtt == 0 && e.hsSentAt > 0 {
		sample := e.eng.Now() - e.hsSentAt
		if sample > 0 {
			e.srtt = sample
			e.rttvar = sample / 2
		}
	}
}

// Shutdown sends FIN after all written data is acknowledged and
// invokes done when the peer's FIN-ACK arrives. Idempotent.
func (e *Endpoint) Shutdown(done func()) {
	e.onShutdown = done
	e.maybeFIN()
}

func (e *Endpoint) maybeFIN() {
	if e.onShutdown == nil || e.finSent || e.unlimited || e.sndUna != e.appLimit {
		return
	}
	e.finSent = true
	now := e.eng.Now()
	e.down.Send(&packet.Segment{
		Flow:      e.flow,
		StartSeq:  e.sndNxt,
		EndSeq:    e.sndNxt,
		CreatedAt: now,
		LastMerge: now,
		Flags:     packet.FlagFIN | packet.FlagACK,
		Ack:       e.rcvNxt,
		SentAt:    now,
		Probe:     e.Probe,
	})
}

// handleFIN processes a peer FIN: if we have not sent our own FIN yet,
// answer with one (full close — the passive close of a typical
// request/response exchange); either way, a pending Shutdown completes
// once the peer's FIN arrives.
func (e *Endpoint) handleFIN(s *packet.Segment) {
	if !e.finSent {
		e.finSent = true
		now := e.eng.Now()
		e.down.Send(&packet.Segment{
			Flow:      e.flow,
			StartSeq:  e.sndNxt,
			EndSeq:    e.sndNxt,
			CreatedAt: now,
			LastMerge: now,
			Flags:     packet.FlagFIN | packet.FlagACK,
			Ack:       e.rcvNxt,
			SentAt:    now,
			Probe:     e.Probe,
		})
	} else {
		e.sendAck()
	}
	if e.onShutdown != nil {
		cb := e.onShutdown
		e.onShutdown = nil
		cb()
	}
}

var _ = sim.Time(0)
