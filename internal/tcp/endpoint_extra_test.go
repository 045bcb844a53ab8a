package tcp

import (
	"testing"
	"testing/quick"

	"presto/internal/packet"
	"presto/internal/sim"
)

func TestSequenceWraparoundTransfer(t *testing.T) {
	// Start 100 KB below the 2^32 wrap and transfer 1 MB across it.
	eng := sim.NewEngine()
	cfg := Config{ISS: ^uint32(0) - 100_000}
	p := newPair(eng, 20*sim.Microsecond, cfg)
	const n = 1 << 20
	p.a.Write(n)
	eng.RunAll()
	if p.b.Delivered() != n || p.a.Acked() != n {
		t.Fatalf("wraparound transfer: delivered=%d acked=%d", p.b.Delivered(), p.a.Acked())
	}
	if p.a.Stats.Timeouts != 0 {
		t.Fatalf("timeouts across wraparound: %d", p.a.Stats.Timeouts)
	}
}

func TestSequenceWraparoundWithLoss(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{ISS: ^uint32(0) - 50_000, MaxSeg: packet.MSS}
	p := newPair(eng, 20*sim.Microsecond, cfg)
	rng := sim.NewRNG(3)
	p.filter = func(s *packet.Segment) bool {
		return !(s.Len() > 0 && rng.Float64() < 0.03)
	}
	const n = 400_000
	p.a.Write(n)
	eng.RunAll()
	if p.b.Delivered() != n || !p.a.Done() {
		t.Fatalf("lossy wraparound: delivered=%d", p.b.Delivered())
	}
}

func TestTailLossProbeRescuesLastSegment(t *testing.T) {
	// Drop the final segment of a flow: no dup-ACKs can follow, so
	// only the TLP (or the 200 ms RTO) can recover it. With TLP, the
	// flow finishes in tens of ms, not 200+.
	eng := sim.NewEngine()
	p := newPair(eng, 20*sim.Microsecond, Config{MaxSeg: packet.MSS})
	const n = 50 * packet.MSS
	dropped := false
	p.filter = func(s *packet.Segment) bool {
		if s.Len() > 0 && !s.Retrans && s.EndSeq == uint32(1+n) && !dropped {
			dropped = true
			return false
		}
		return true
	}
	p.a.Write(n)
	eng.RunAll()
	if !dropped {
		t.Fatal("tail segment never dropped")
	}
	if p.b.Delivered() != n {
		t.Fatalf("delivered %d", p.b.Delivered())
	}
	if p.a.Stats.Probes == 0 {
		t.Fatal("no tail loss probe fired")
	}
	if p.a.Stats.Timeouts != 0 {
		t.Fatalf("RTO fired despite TLP: finished at %v", eng.Now())
	}
	if eng.Now() > 100*sim.Millisecond {
		t.Fatalf("tail loss recovery took %v", eng.Now())
	}
}

func TestProbeTimerStopsWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 10*sim.Microsecond, Config{})
	p.a.Write(10_000)
	eng.RunAll()
	if p.a.Stats.Probes != 0 {
		t.Fatalf("probes fired on a clean transfer: %d", p.a.Stats.Probes)
	}
	// Engine fully drained: no stray timers.
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after idle", eng.Pending())
	}
}

func TestKarnRTTSamplesSkipRetransmissions(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 100*sim.Microsecond, Config{MaxSeg: packet.MSS})
	// Establish a clean SRTT first.
	p.a.Write(20_000)
	eng.RunAll()
	srtt := p.a.SRTT()
	if srtt < 190*sim.Microsecond || srtt > 300*sim.Microsecond {
		t.Fatalf("baseline srtt = %v", srtt)
	}
	// Now delay a retransmitted segment by 50ms; Karn's rule must keep
	// the sample out of SRTT.
	dropped := false
	p.filter = func(s *packet.Segment) bool {
		if s.Len() > 0 && !s.Retrans && packet.SeqGEQ(s.StartSeq, 25001) && !dropped {
			dropped = true
			return false
		}
		return true
	}
	p.a.Write(30_000)
	eng.RunAll()
	after := p.a.SRTT()
	if after > 2*srtt {
		t.Fatalf("retransmission polluted SRTT: %v -> %v", srtt, after)
	}
}

func TestDupAckRequiresPureAck(t *testing.T) {
	// Data-bearing segments carrying the same cumulative ACK must not
	// count as duplicate ACKs.
	eng := sim.NewEngine()
	sink := &captureDown{}
	f := packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 2, Port: 2}}
	e := New(eng, f, sink, Config{})
	e.SetUnlimited(true) // outstanding data exists
	for i := 0; i < 5; i++ {
		e.DeliverSegment(&packet.Segment{
			Flow:     f.Reverse(),
			StartSeq: uint32(1 + i*1000), EndSeq: uint32(1 + (i+1)*1000),
			Flags: packet.FlagACK, Ack: 1,
		})
	}
	if e.Stats.DupAcks != 0 {
		t.Fatalf("data segments counted as dup-ACKs: %d", e.Stats.DupAcks)
	}
}

// Property: transfers complete for any ISS, including wrap-adjacent
// values, with random loss.
func TestISSProperty(t *testing.T) {
	prop := func(issRaw uint32, seed uint64) bool {
		eng := sim.NewEngine()
		p := newPair(eng, 10*sim.Microsecond, Config{ISS: issRaw})
		rng := sim.NewRNG(seed)
		p.filter = func(s *packet.Segment) bool {
			return !(s.Len() > 0 && rng.Float64() < 0.02)
		}
		const n = 150_000
		p.a.Write(n)
		eng.RunAll()
		return p.b.Delivered() == n && p.a.Done()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
