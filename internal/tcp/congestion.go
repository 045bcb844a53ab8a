package tcp

import (
	"math"

	"presto/internal/packet"
	"presto/internal/sim"
)

// CongestionControl is the pluggable congestion-avoidance policy of an
// Endpoint. Slow start, fast retransmit, and RTO machinery live in the
// endpoint; the CC decides window growth in congestion avoidance and
// the multiplicative decrease on loss. MPTCP's coupled controller
// implements this interface over a set of subflows.
type CongestionControl interface {
	Name() string
	// OnAck is called for every ACK that advances snd.una while in
	// congestion avoidance; it returns the new cwnd in bytes.
	OnAck(e *Endpoint, ackedBytes int) float64
	// OnLoss is called on a fast-retransmit loss event; it returns the
	// new ssthresh in bytes.
	OnLoss(e *Endpoint) float64
	// OnTimeout is called on RTO.
	OnTimeout(e *Endpoint)
}

// Reno is NewReno-style congestion avoidance: +1 MSS per RTT, halve on
// loss.
type Reno struct{}

// Name implements CongestionControl.
func (Reno) Name() string { return "reno" }

// OnAck implements CongestionControl.
func (Reno) OnAck(e *Endpoint, ackedBytes int) float64 {
	// cwnd += MSS * (MSS/cwnd) per acked MSS: standard byte-counting.
	inc := float64(packet.MSS) * float64(ackedBytes) / e.cwnd
	if inc > float64(ackedBytes) {
		inc = float64(ackedBytes)
	}
	return e.cwnd + inc
}

// OnLoss implements CongestionControl.
func (Reno) OnLoss(e *Endpoint) float64 { return e.cwnd / 2 }

// OnTimeout implements CongestionControl.
func (Reno) OnTimeout(e *Endpoint) {}

// Cubic implements TCP CUBIC (the paper's testbed default), following
// Ha, Rhee, Xu (2008): W(t) = C·(t-K)³ + Wmax with fast convergence
// and a Reno-friendly region.
type Cubic struct {
	wMax       float64  // cwnd before the last reduction (bytes)
	epochStart sim.Time // start of the current growth epoch; 0 = unset
	k          float64  // seconds to reach wMax
	wTCP       float64  // Reno-friendly estimate
}

// CUBIC constants (standard): C in MSS/sec³ units, beta multiplicative
// decrease.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Name implements CongestionControl.
func (c *Cubic) Name() string { return "cubic" }

// OnAck implements CongestionControl.
func (c *Cubic) OnAck(e *Endpoint, ackedBytes int) float64 {
	now := e.eng.Now()
	mss := float64(packet.MSS)
	if c.epochStart == 0 {
		c.epochStart = now
		if c.wMax < e.cwnd {
			c.wMax = e.cwnd
			c.k = 0
		} else {
			c.k = math.Cbrt((c.wMax - e.cwnd) / mss / cubicC)
		}
		c.wTCP = e.cwnd
	}
	t := sim.Time(now - c.epochStart).Seconds()
	target := c.wMax + cubicC*math.Pow(t-c.k, 3)*mss
	// Reno-friendly region: grow at least as fast as Reno would.
	c.wTCP += mss * float64(ackedBytes) / e.cwnd * 3 * (1 - cubicBeta) / (1 + cubicBeta)
	if target < c.wTCP {
		target = c.wTCP
	}
	if target <= e.cwnd {
		// Gentle growth toward (and past) the plateau.
		return e.cwnd + mss*float64(ackedBytes)/e.cwnd*0.01
	}
	// Approach the cubic target over roughly one RTT of ACKs.
	inc := (target - e.cwnd) * float64(ackedBytes) / e.cwnd
	if inc > float64(ackedBytes) {
		inc = float64(ackedBytes)
	}
	return e.cwnd + inc
}

// OnLoss implements CongestionControl.
func (c *Cubic) OnLoss(e *Endpoint) float64 {
	// Fast convergence: release bandwidth faster when below the
	// previous plateau.
	if e.cwnd < c.wMax {
		c.wMax = e.cwnd * (1 + cubicBeta) / 2
	} else {
		c.wMax = e.cwnd
	}
	c.epochStart = 0
	return e.cwnd * cubicBeta
}

// OnTimeout implements CongestionControl.
func (c *Cubic) OnTimeout(e *Endpoint) {
	c.epochStart = 0
	c.wMax = e.cwnd
}

// NewCC builds a congestion controller by name: "cubic" (default),
// "reno", or "dctcp" (Reno-style growth; the ECN response lives in
// the endpoint's dctcpUpdate).
func NewCC(name string) CongestionControl {
	switch name {
	case "reno", "dctcp":
		return Reno{}
	default:
		return &Cubic{}
	}
}
