package tcp

import (
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

func TestHandshakeAddsOneRTT(t *testing.T) {
	const delay = 100 * sim.Microsecond
	run := func(handshake bool) sim.Time {
		eng := sim.NewEngine()
		p := newPair(eng, delay, Config{Handshake: handshake})
		var done sim.Time
		p.b.OnDelivered = func(total uint64) {
			if total >= 10_000 && done == 0 {
				done = eng.Now()
			}
		}
		p.a.Write(10_000)
		eng.RunAll()
		if done == 0 {
			t.Fatal("transfer never completed")
		}
		return done
	}
	warm := run(false)
	cold := run(true)
	extra := cold - warm
	// The handshake should cost almost exactly one RTT (2*delay).
	if extra < 2*delay-10*sim.Microsecond || extra > 2*delay+50*sim.Microsecond {
		t.Fatalf("handshake added %v, want ~%v", extra, 2*delay)
	}
}

func TestHandshakeQueuesEarlyWrites(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 50*sim.Microsecond, Config{Handshake: true})
	p.a.Write(5000)
	p.a.Write(5000) // both land before establishment
	if p.a.Established() {
		t.Fatal("established before SYN-ACK")
	}
	eng.RunAll()
	if !p.a.Established() {
		t.Fatal("never established")
	}
	if p.b.Delivered() != 10_000 {
		t.Fatalf("delivered %d", p.b.Delivered())
	}
}

func TestLostSYNRetransmitted(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 50*sim.Microsecond, Config{Handshake: true})
	dropped := false
	p.filter = func(s *packet.Segment) bool {
		if s.Flags.Has(packet.FlagSYN) && !s.Flags.Has(packet.FlagACK) && !dropped {
			dropped = true
			return false
		}
		return true
	}
	p.a.Write(20_000)
	eng.RunAll()
	if !dropped {
		t.Fatal("SYN never dropped")
	}
	if p.b.Delivered() != 20_000 {
		t.Fatalf("delivered %d after lost SYN", p.b.Delivered())
	}
	if p.a.Stats.Timeouts == 0 {
		t.Fatal("SYN loss did not count a timeout")
	}
	// Linux retries SYN after 1s; our model uses the endpoint RTO
	// (minRTO 200ms) — completion must be after one backoff period.
	if eng.Now() < 200*sim.Millisecond {
		t.Fatalf("finished at %v, too early for a SYN retry", eng.Now())
	}
}

func TestShutdownFIN(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 20*sim.Microsecond, Config{})
	closed := false
	p.a.Write(30_000)
	p.a.Shutdown(func() { closed = true })
	eng.RunAll()
	if p.b.Delivered() != 30_000 {
		t.Fatalf("delivered %d", p.b.Delivered())
	}
	if !closed {
		t.Fatal("shutdown callback never fired")
	}
}

func TestShutdownWaitsForData(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 20*sim.Microsecond, Config{})
	var closedAt, deliveredAt sim.Time
	p.b.OnDelivered = func(total uint64) {
		if total >= 100_000 && deliveredAt == 0 {
			deliveredAt = eng.Now()
		}
	}
	p.a.Write(100_000)
	p.a.Shutdown(func() { closedAt = eng.Now() })
	eng.RunAll()
	if closedAt == 0 || deliveredAt == 0 {
		t.Fatal("missing events")
	}
	if closedAt < deliveredAt {
		t.Fatalf("FIN completed at %v before data at %v", closedAt, deliveredAt)
	}
}

func TestHandshakeDefaultOff(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 10*sim.Microsecond, Config{})
	if !p.a.Established() {
		t.Fatal("default connections must be pre-established")
	}
}
