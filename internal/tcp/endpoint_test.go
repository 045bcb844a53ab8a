package tcp

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"presto/internal/packet"
	"presto/internal/sim"
)

// pair wires two endpoints through an ideal (infinite-bandwidth) link
// with a fixed one-way delay and an optional drop/mangle filter.
type pair struct {
	eng   *sim.Engine
	delay sim.Time
	a, b  *Endpoint
	// filter returns false to drop a segment. Applied on every send.
	filter func(*packet.Segment) bool
}

type pairEnd struct {
	p    *pair
	peer **Endpoint
}

func (d *pairEnd) Send(seg *packet.Segment) {
	if d.p.filter != nil && !d.p.filter(seg) {
		return
	}
	d.p.eng.Schedule(d.p.delay, func() { (*d.peer).DeliverSegment(seg) })
}

func newPair(eng *sim.Engine, delay sim.Time, cfg Config) *pair {
	p := &pair{eng: eng, delay: delay}
	fa := packet.FlowKey{Src: packet.Addr{Host: 1, Port: 10}, Dst: packet.Addr{Host: 2, Port: 20}}
	p.a = New(eng, fa, &pairEnd{p: p, peer: &p.b}, cfg)
	p.b = New(eng, fa.Reverse(), &pairEnd{p: p, peer: &p.a}, cfg)
	return p
}

// TestZeroConfigIsTestbed pins the zero-value rule: every field
// DefaultConfig sets must be one fill can default. A bool defaulting
// to true cannot be, so an endpoint built from Config{} would silently
// run without it.
func TestZeroConfigIsTestbed(t *testing.T) {
	e := New(sim.NewEngine(), packet.FlowKey{}, &captureDown{}, Config{})
	got, want := reflect.ValueOf(e.cfg), reflect.ValueOf(DefaultConfig())
	for i := 0; i < want.NumField(); i++ {
		if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			t.Errorf("Config{}.%s runs as %v, DefaultConfig has %v",
				want.Type().Field(i).Name, got.Field(i), want.Field(i))
		}
	}
}

// TestEndpointSize pins an endpoint to the 512-byte size class: Dial
// allocates two per subflow, one at each end.
func TestEndpointSize(t *testing.T) {
	if n := unsafe.Sizeof(Endpoint{}); n > 512 {
		t.Errorf("unsafe.Sizeof(Endpoint{}) = %d, want <= 512", n)
	}
}

func TestBasicTransfer(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 10*sim.Microsecond, Config{})
	const n = 1 << 20
	p.a.Write(n)
	eng.RunAll()
	if got := p.b.Delivered(); got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}
	if got := p.a.Acked(); got != n {
		t.Fatalf("acked %d, want %d", got, n)
	}
	if !p.a.Done() {
		t.Fatal("sender not done")
	}
	if p.a.Stats.Timeouts != 0 || p.a.Stats.Retransmits != 0 {
		t.Fatalf("lossless transfer saw recovery: %+v", p.a.Stats)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 50*sim.Microsecond, Config{})
	p.a.SetUnlimited(true)
	w0 := p.a.Cwnd()
	eng.Run(210 * sim.Microsecond) // ~2 RTTs (RTT = 100us)
	if p.a.Cwnd() < 3*w0 {
		t.Fatalf("cwnd after 2 RTTs = %v, want >= 3x initial %v", p.a.Cwnd(), w0)
	}
	if !p.a.InSlowStart() {
		t.Fatal("should still be in slow start with no loss and large ssthresh")
	}
}

func TestRTTEstimation(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 50*sim.Microsecond, Config{})
	p.a.Write(200_000)
	eng.RunAll()
	srtt := p.a.SRTT()
	if srtt < 90*sim.Microsecond || srtt > 150*sim.Microsecond {
		t.Fatalf("srtt = %v, want ~100us", srtt)
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	eng := sim.NewEngine()
	// Per-MSS segments so a drop is one packet, not a whole window
	// (the fabric layer is what normally packetizes TSO writes).
	p := newPair(eng, 20*sim.Microsecond, Config{MaxSeg: packet.MSS})
	dropped := false
	p.filter = func(s *packet.Segment) bool {
		// Drop the first data segment that starts at byte 30000+1.
		if !dropped && s.Len() > 0 && !s.Retrans && packet.SeqGEQ(s.StartSeq, 30001) {
			dropped = true
			return false
		}
		return true
	}
	const n = 400_000
	p.a.Write(n)
	eng.RunAll()
	if !dropped {
		t.Fatal("filter never dropped")
	}
	if p.b.Delivered() != n || p.a.Acked() != n {
		t.Fatalf("delivered/acked = %d/%d, want %d", p.b.Delivered(), p.a.Acked(), n)
	}
	if p.a.Stats.Retransmits == 0 {
		t.Fatal("no fast retransmit for the dropped segment")
	}
	if p.a.Stats.Timeouts != 0 {
		t.Fatalf("needed %d RTOs; SACK recovery should have sufficed", p.a.Stats.Timeouts)
	}
	if eng.Now() > 50*sim.Millisecond {
		t.Fatalf("recovery took %v — smells like an RTO", eng.Now())
	}
}

func TestRTOOnBlackout(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 20*sim.Microsecond, Config{})
	blackout := true
	p.filter = func(s *packet.Segment) bool {
		if blackout && s.Len() > 0 && packet.SeqGT(s.StartSeq, 50000) {
			return false
		}
		return true
	}
	eng.Schedule(500*sim.Millisecond, func() { blackout = false })
	const n = 200_000
	p.a.Write(n)
	eng.RunAll()
	if p.a.Stats.Timeouts == 0 {
		t.Fatal("blackout should force an RTO")
	}
	if p.b.Delivered() != n {
		t.Fatalf("delivered %d, want %d after recovery", p.b.Delivered(), n)
	}
	// The first RTO must respect minRTO (200ms).
	if eng.Now() < 200*sim.Millisecond {
		t.Fatalf("finished at %v, before minRTO could have fired", eng.Now())
	}
}

func TestCwndCollapsesOnTimeout(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 20*sim.Microsecond, Config{})
	p.a.SetUnlimited(true)
	eng.Run(5 * sim.Millisecond) // grow the window
	grown := p.a.Cwnd()
	p.a.onRTO()
	if p.a.Cwnd() >= grown || p.a.Cwnd() > float64(2*p.a.MSS()) {
		t.Fatalf("cwnd after RTO = %v (was %v), want ~1 MSS", p.a.Cwnd(), grown)
	}
}

func TestReorderingTriggersSpuriousRetransmit(t *testing.T) {
	// Deliver data segments with the 2nd..4th segments swapped far
	// enough ahead that dup-ACKs fire: TCP misreads reordering as
	// loss (§2.2). This is the pathology Presto GRO exists to prevent.
	eng := sim.NewEngine()
	cfg := Config{MaxSeg: packet.MSS} // force per-MSS segments
	p := newPair(eng, 10*sim.Microsecond, cfg)
	var held []*packet.Segment
	delayCount := 0
	p.filter = func(s *packet.Segment) bool {
		if s.Len() > 0 && !s.Retrans && packet.SeqGT(s.StartSeq, 1) && delayCount < 1 && s.Flow == p.a.Flow() {
			// Hold the 2nd segment and release it after 6 more pass.
			delayCount++
			held = append(held, s)
			eng.Schedule(400*sim.Microsecond, func() {
				for _, h := range held {
					p.b.DeliverSegment(h)
				}
			})
			return false
		}
		return true
	}
	p.a.Write(100_000)
	eng.RunAll()
	if p.b.Delivered() != 100_000 {
		t.Fatalf("delivered %d", p.b.Delivered())
	}
	if p.a.Stats.Retransmits == 0 {
		t.Fatal("reordering did not trigger a (spurious) fast retransmit — dup-ACK path broken")
	}
}

func TestReceiverReassemblyOutOfOrder(t *testing.T) {
	eng := sim.NewEngine()
	f := packet.FlowKey{Src: packet.Addr{Host: 9, Port: 1}, Dst: packet.Addr{Host: 8, Port: 2}}
	sink := &captureDown{}
	e := New(eng, f.Reverse(), sink, Config{})
	seg := func(start, end uint32) *packet.Segment {
		return &packet.Segment{Flow: f, StartSeq: start, EndSeq: end, Flags: packet.FlagACK, Ack: 1}
	}
	e.DeliverSegment(seg(2001, 3001)) // out of order
	if e.Delivered() != 0 {
		t.Fatal("delivered advanced past a hole")
	}
	if e.Stats.OOOSegments != 1 {
		t.Fatal("OOO segment not counted")
	}
	e.DeliverSegment(seg(1, 2001)) // fills the head
	if e.Delivered() != 3000 {
		t.Fatalf("delivered = %d, want 3000", e.Delivered())
	}
	// The out-of-order ACK must have carried a SACK block.
	foundSack := false
	for _, s := range sink.segs {
		if len(s.Sack) > 0 {
			foundSack = true
		}
	}
	if !foundSack {
		t.Fatal("no SACK advertised for out-of-order data")
	}
}

type captureDown struct{ segs []*packet.Segment }

func (c *captureDown) Send(s *packet.Segment) { c.segs = append(c.segs, s) }

func TestCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 10*sim.Microsecond, Config{})
	var deliveredAt, ackedAt sim.Time
	p.b.OnDelivered = func(total uint64) {
		if total >= 50_000 && deliveredAt == 0 {
			deliveredAt = eng.Now()
		}
	}
	p.a.OnAcked = func(total uint64) {
		if total >= 50_000 && ackedAt == 0 {
			ackedAt = eng.Now()
		}
	}
	p.a.Write(50_000)
	eng.RunAll()
	if deliveredAt == 0 || ackedAt == 0 {
		t.Fatal("callbacks did not fire")
	}
	if ackedAt < deliveredAt {
		t.Fatal("acked before delivered?")
	}
}

func TestMicePingPong(t *testing.T) {
	// 50KB request + app-level 100B response, the paper's mice FCT
	// definition.
	eng := sim.NewEngine()
	p := newPair(eng, 25*sim.Microsecond, Config{})
	var fct sim.Time
	p.b.OnDelivered = func(total uint64) {
		if total >= 50_000 {
			p.b.Write(100) // app-level ack on the reverse direction
		}
	}
	p.a.OnDelivered = func(total uint64) {
		if total >= 100 && fct == 0 {
			fct = eng.Now()
		}
	}
	p.a.Write(50_000)
	eng.RunAll()
	if fct == 0 {
		t.Fatal("no app-level response")
	}
	if fct > 2*sim.Millisecond {
		t.Fatalf("mice FCT = %v, absurdly slow for an idle path", fct)
	}
}

func TestProbeSegmentsMarked(t *testing.T) {
	eng := sim.NewEngine()
	sink := &captureDown{}
	f := packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 2, Port: 2}}
	e := New(eng, f, sink, Config{})
	e.Probe = true
	e.Write(64)
	if len(sink.segs) == 0 || !sink.segs[0].Probe {
		t.Fatal("probe flag not propagated to segments")
	}
}

// Property: random single-segment drops anywhere in the stream never
// prevent full, exactly-once delivery.
func TestLossRecoveryProperty(t *testing.T) {
	prop := func(seed uint64, sizeRaw uint16, dropsRaw uint8) bool {
		eng := sim.NewEngine()
		p := newPair(eng, 15*sim.Microsecond, Config{})
		rng := sim.NewRNG(seed)
		n := (int(sizeRaw)%300 + 20) * 1000 // 20KB..320KB
		dropProb := float64(dropsRaw%10) / 100
		p.filter = func(s *packet.Segment) bool {
			if s.Len() > 0 && rng.Float64() < dropProb {
				return false
			}
			return true
		}
		p.a.Write(n)
		eng.RunAll()
		return p.b.Delivered() == uint64(n) && p.a.Acked() == uint64(n) && p.a.Done()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scoreboard stays sorted and non-overlapping under
// arbitrary insertions, and contains() agrees with the inserted set.
func TestScoreboardProperty(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		rng := sim.NewRNG(seed)
		var sb scoreboard
		covered := map[uint32]bool{}
		for i := 0; i < int(nRaw%40)+1; i++ {
			start := uint32(rng.Intn(500))
			l := uint32(rng.Intn(50) + 1)
			sb.add(start, start+l)
			for s := start; s < start+l; s++ {
				covered[s] = true
			}
		}
		// Sorted, non-overlapping.
		for i := 1; i < len(sb.blocks); i++ {
			if !packet.SeqLT(sb.blocks[i-1].End, sb.blocks[i].Start) {
				return false
			}
		}
		// Membership matches.
		for s := uint32(0); s < 600; s++ {
			if sb.contains(s) != covered[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreboardFirstHole(t *testing.T) {
	var sb scoreboard
	if _, _, ok := sb.firstHole(100); ok {
		t.Fatal("empty scoreboard has no hole")
	}
	sb.add(200, 300)
	start, end, ok := sb.firstHole(100)
	if !ok || start != 100 || end != 200 {
		t.Fatalf("hole = [%d,%d) ok=%v, want [100,200)", start, end, ok)
	}
	sb.add(100, 200) // fill it
	if _, _, ok := sb.firstHole(100); ok {
		t.Fatal("hole reported after fill")
	}
	sb.add(400, 500)
	start, end, _ = sb.firstHole(100)
	if start != 300 || end != 400 {
		t.Fatalf("second hole = [%d,%d), want [300,400)", start, end)
	}
}

func TestScoreboardPrune(t *testing.T) {
	var sb scoreboard
	sb.add(100, 200)
	sb.add(300, 400)
	sb.prune(150)
	if sb.contains(120) || !sb.contains(160) || !sb.contains(350) {
		t.Fatalf("prune wrong: %v", sb.blocks)
	}
	if got := sb.sackedAbove(150); got != 150 {
		t.Fatalf("sackedAbove = %d, want 150", got)
	}
}

func TestCubicGrowsAfterLoss(t *testing.T) {
	eng := sim.NewEngine()
	p := newPair(eng, 100*sim.Microsecond, Config{CC: "cubic"})
	p.a.SetUnlimited(true)
	eng.Run(20 * sim.Millisecond)
	before := p.a.Cwnd()
	// Synthesize a loss event.
	p.a.enterRecovery()
	p.a.inRec = false
	atLoss := p.a.Cwnd()
	if atLoss >= before {
		t.Fatalf("no multiplicative decrease: %v -> %v", before, atLoss)
	}
	eng.Run(120 * sim.Millisecond)
	if p.a.Cwnd() <= atLoss {
		t.Fatalf("cubic did not regrow: %v", p.a.Cwnd())
	}
}

func TestRenoVsCubicSelection(t *testing.T) {
	if NewCC("reno").Name() != "reno" {
		t.Fatal("reno not selected")
	}
	if NewCC("cubic").Name() != "cubic" {
		t.Fatal("cubic not selected")
	}
	if NewCC("").Name() != "cubic" {
		t.Fatal("default should be cubic")
	}
}
