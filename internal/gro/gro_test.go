package gro

import (
	"math/bits"
	"testing"
	"testing/quick"

	"presto/internal/packet"
	"presto/internal/sim"
)

// sink collects delivered segments.
type sink struct {
	segs []*packet.Segment
}

func (s *sink) DeliverSegment(seg *packet.Segment) { s.segs = append(s.segs, seg) }

func (s *sink) dataSegs() []*packet.Segment {
	var out []*packet.Segment
	for _, seg := range s.segs {
		if seg.Len() > 0 {
			out = append(out, seg)
		}
	}
	return out
}

var testFlow = packet.FlowKey{
	Src: packet.Addr{Host: 1, Port: 4000},
	Dst: packet.Addr{Host: 2, Port: 5000},
}

// pkt builds a full-MSS data packet at index i (seq = i*MSS) in
// flowcell fc.
func pkt(i int, fc uint32) *packet.Packet {
	return &packet.Packet{
		Flow:       testFlow,
		Seq:        uint32(i * packet.MSS),
		Payload:    packet.MSS,
		FlowcellID: fc,
		Flags:      packet.FlagACK,
	}
}

func feed(h Handler, pkts ...*packet.Packet) {
	for _, p := range pkts {
		h.Receive(p)
	}
	h.Flush()
}

func TestOfficialInOrderMergesIntoOneSegment(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	o := NewOfficial(eng, out)
	feed(o, pkt(0, 1), pkt(1, 1), pkt(2, 1), pkt(3, 1))
	data := out.dataSegs()
	if len(data) != 1 {
		t.Fatalf("pushed %d segments, want 1", len(data))
	}
	if data[0].Packets != 4 || data[0].Len() != 4*packet.MSS {
		t.Fatalf("segment %v has %d packets", data[0], data[0].Packets)
	}
	if o.Stats().Merges != 3 {
		t.Fatalf("merges = %d, want 3", o.Stats().Merges)
	}
}

func TestOfficialSegmentCapAt64KB(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	o := NewOfficial(eng, out)
	// 50 MSS packets exceed 64 KB: expect 2 segments.
	var ps []*packet.Packet
	for i := 0; i < 50; i++ {
		ps = append(ps, pkt(i, 1))
	}
	feed(o, ps...)
	data := out.dataSegs()
	if len(data) != 2 {
		t.Fatalf("pushed %d segments, want 2", len(data))
	}
	if data[0].Len() > packet.MaxSegSize {
		t.Fatalf("segment exceeds 64KB: %d", data[0].Len())
	}
}

// TestOfficialGROSmallSegmentFlooding reproduces Figure 2: interleaved
// packets from two paths force official GRO to push small segments.
func TestOfficialGROSmallSegmentFlooding(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	o := NewOfficial(eng, out)
	// Arrival order from Figure 2: P0 P1 P2 P5 P6 P3 P4 P7 P8, where
	// P0-P4 are flowcell 1 and P5-P8 are flowcell 2.
	order := []struct {
		i  int
		fc uint32
	}{{0, 1}, {1, 1}, {2, 1}, {5, 2}, {6, 2}, {3, 1}, {4, 1}, {7, 2}, {8, 2}}
	for _, x := range order {
		o.Receive(pkt(x.i, x.fc))
	}
	o.Flush()
	data := out.dataSegs()
	// Official GRO pushes S1(P0-P2), S2(P5-P6), S3(P3), then flushes
	// S4(P4)... the exact grouping: every direction change ejects.
	if len(data) < 4 {
		t.Fatalf("official GRO pushed %d segments; expected the small-segment flood (>=4)", len(data))
	}
	// And the pushes are out of order (TCP would see reordering).
	sawOutOfOrder := false
	for i := 1; i < len(data); i++ {
		if packet.SeqLT(data[i].StartSeq, data[i-1].StartSeq) {
			sawOutOfOrder = true
		}
	}
	if !sawOutOfOrder {
		t.Fatal("official GRO did not expose reordering to the stack")
	}
}

// TestPrestoGROMasksReordering runs the same Figure 2 arrival order
// through Presto GRO: everything merges into two large in-order
// segments.
func TestPrestoGROMasksReordering(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{})
	order := []struct {
		i  int
		fc uint32
	}{{0, 1}, {1, 1}, {2, 1}, {5, 2}, {6, 2}, {3, 1}, {4, 1}, {7, 2}, {8, 2}}
	for _, x := range order {
		g.Receive(pkt(x.i, x.fc))
	}
	g.Flush()
	data := out.dataSegs()
	if len(data) != 2 {
		t.Fatalf("presto GRO pushed %d segments, want 2", len(data))
	}
	if data[0].Packets != 5 || data[1].Packets != 4 {
		t.Fatalf("segment packet counts %d,%d want 5,4", data[0].Packets, data[1].Packets)
	}
	// In order: no reordering exposed to TCP.
	if packet.SeqLT(data[1].StartSeq, data[0].StartSeq) {
		t.Fatal("presto GRO delivered out of order")
	}
	if g.HeldSegments() != 0 {
		t.Fatalf("%d segments still held", g.HeldSegments())
	}
}

func TestPrestoLossWithinFlowcellPushedImmediately(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{})
	// P0 P1 then P3 (P2 lost) — all flowcell 1: gap inside a flowcell
	// means loss, so both segments must be pushed at the next flush.
	feed(g, pkt(0, 1), pkt(1, 1), pkt(3, 1))
	data := out.dataSegs()
	if len(data) != 2 {
		t.Fatalf("pushed %d segments, want 2 (no holding on intra-flowcell loss)", len(data))
	}
	if g.HeldSegments() != 0 {
		t.Fatal("segments held despite intra-flowcell loss")
	}
}

func TestPrestoBoundaryGapHeldThenFilled(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{})
	// Flowcell 1 = P0..P2, flowcell 2 = P3... but P2 (tail of fc 1) is
	// delayed: arrival order P0 P1 | P3(fc2) | ... flush: fc2 held.
	g.Receive(pkt(0, 1))
	g.Receive(pkt(1, 1))
	g.Flush()
	g.Receive(pkt(3, 2))
	g.Flush()
	if len(out.dataSegs()) != 1 {
		t.Fatalf("pushed %d segments, want only the in-order fc1 prefix", len(out.dataSegs()))
	}
	if g.HeldSegments() != 1 {
		t.Fatalf("held %d segments, want 1", g.HeldSegments())
	}
	// The missing P2 arrives: next flush releases everything in order.
	g.Receive(pkt(2, 1))
	g.Flush()
	data := out.dataSegs()
	if len(data) != 3 {
		t.Fatalf("pushed %d segments after fill, want 3", len(data))
	}
	for i := 1; i < len(data); i++ {
		if packet.SeqLT(data[i].StartSeq, data[i-1].StartSeq) {
			t.Fatal("out-of-order delivery after gap fill")
		}
	}
	if g.Stats().TimeoutFires != 0 {
		t.Fatal("timeout fired for pure reordering")
	}
}

func TestPrestoBoundaryGapTimesOutAsLoss(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{InitialEWMA: 100 * sim.Microsecond})
	g.Receive(pkt(0, 1))
	g.Receive(pkt(1, 1))
	g.Flush()
	// fc2 arrives but the fc1 tail never does (lost).
	g.Receive(pkt(3, 2))
	g.Flush()
	if g.HeldSegments() != 1 {
		t.Fatalf("held %d, want 1", g.HeldSegments())
	}
	// The re-flush timer must fire on its own and declare loss after
	// alpha*EWMA = 200us.
	eng.RunAll()
	if g.HeldSegments() != 0 {
		t.Fatal("segment still held after timeout")
	}
	if g.Stats().TimeoutFires != 1 {
		t.Fatalf("timeout fires = %d, want 1", g.Stats().TimeoutFires)
	}
	if eng.Now() < 200*sim.Microsecond {
		t.Fatalf("timeout fired too early: %v", eng.Now())
	}
	if len(out.dataSegs()) != 2 {
		t.Fatalf("pushed %d segments, want 2", len(out.dataSegs()))
	}
}

func TestPrestoBetaHoldExtension(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	cfg := PrestoConfig{InitialEWMA: 100 * sim.Microsecond, Alpha: 2, Beta: 2}
	g := NewPresto(eng, out, cfg)
	g.Receive(pkt(0, 1))
	g.Flush()
	g.Receive(pkt(5, 2)) // boundary gap: fc2 held (P1..P4 of fc1 missing)
	g.Flush()
	// The base timeout is alpha*EWMA = 200us. Merge packets into the
	// held segment at 180/220/260us — each within EWMA/beta = 50us of
	// the previous deadline — so the beta rule keeps extending the
	// hold past the base timeout.
	for i := 1; i <= 3; i++ {
		i := i
		eng.Schedule(sim.Time(140+40*i)*sim.Microsecond, func() {
			g.Receive(pkt(5+i, 2)) // extends the held fc2 segment
			g.Flush()
		})
	}
	eng.Run(300 * sim.Microsecond)
	if g.Stats().TimeoutFires != 0 {
		t.Fatal("timeout fired despite recent merges (beta rule)")
	}
	if g.HeldSegments() != 1 {
		t.Fatalf("held %d, want 1", g.HeldSegments())
	}
	eng.RunAll()
	if g.Stats().TimeoutFires != 1 {
		t.Fatalf("timeout fires = %d, want 1 after merges stop", g.Stats().TimeoutFires)
	}
}

func TestPrestoStaleFlowcellPushedImmediately(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{})
	feed(g, pkt(0, 1), pkt(1, 1), pkt(2, 2), pkt(3, 2))
	n := len(out.dataSegs())
	// A late retransmission from flowcell 1 (stale): pushed at once.
	feed(g, pkt(1, 1))
	if len(out.dataSegs()) != n+1 {
		t.Fatal("stale flowcell packet was not pushed immediately")
	}
	if g.HeldSegments() != 0 {
		t.Fatal("stale packet held")
	}
}

func TestPrestoRetransmittedFirstPacketOfFlowcell(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{})
	// fc1 = P0,P1 delivered. fc2 starts at P2 but its first copy was
	// lost; TCP retransmits P2 (fc 2): expSeq(=P2.start) == start —
	// in-order case applies. Now simulate overlap: retransmission
	// covers P1..P2 (seq below expSeq): lines 11-13.
	feed(g, pkt(0, 1), pkt(1, 1))
	r := pkt(1, 2) // new flowcell whose first packet overlaps delivered data
	r.Retrans = true
	feed(g, r)
	if g.HeldSegments() != 0 {
		t.Fatal("overlapping retransmission was held")
	}
	data := out.dataSegs()
	if len(data) != 2 {
		t.Fatalf("pushed %d segments, want 2", len(data))
	}
}

func TestPrestoEWMAAdapts(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{InitialEWMA: 100 * sim.Microsecond})
	// Create a boundary gap, resolve it 40us later; the EWMA should
	// observe ~40us.
	g.Receive(pkt(0, 1))
	g.Flush()
	g.Receive(pkt(2, 2))
	g.Flush()
	eng.Schedule(40*sim.Microsecond, func() {
		g.Receive(pkt(1, 1)) // fills the fc1 tail
		g.Flush()
	})
	eng.Run(45 * sim.Microsecond)
	f := g.flows[testFlow]
	if !f.ewma.Initialized() {
		t.Fatal("EWMA not seeded by resolved reordering")
	}
	got := sim.Time(f.ewma.Value())
	if got < 35*sim.Microsecond || got > 45*sim.Microsecond {
		t.Fatalf("EWMA = %v, want ~40us", got)
	}
}

func TestControlPacketsBypassMerging(t *testing.T) {
	eng := sim.NewEngine()
	for _, h := range []Handler{
		NewNone(eng, &sink{}), NewOfficial(eng, &sink{}), NewPresto(eng, &sink{}, PrestoConfig{}),
	} {
		ack := &packet.Packet{Flow: testFlow, Flags: packet.FlagACK, Ack: 100}
		h.Receive(ack)
		if h.Stats().ControlOut != 1 {
			t.Errorf("%T: control packet not delivered immediately", h)
		}
	}
}

func TestNoneDeliversPerPacket(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	n := NewNone(eng, out)
	feed(n, pkt(0, 1), pkt(1, 1), pkt(2, 1))
	if len(out.dataSegs()) != 3 {
		t.Fatalf("None delivered %d segments, want 3", len(out.dataSegs()))
	}
}

func TestPrestoFlowcellIDWraparound(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	g := NewPresto(eng, out, PrestoConfig{})
	top := ^uint32(0)
	// Flowcell IDs top-1, top, 0, 1 in order; seqs also near wrap.
	base := top - uint32(2*packet.MSS)
	mk := func(off int, fc uint32) *packet.Packet {
		return &packet.Packet{
			Flow: testFlow, Seq: base + uint32(off*packet.MSS),
			Payload: packet.MSS, FlowcellID: fc, Flags: packet.FlagACK,
		}
	}
	feed(g, mk(0, top-1), mk(1, top-1), mk(2, top), mk(3, top), mk(4, 0), mk(5, 1))
	data := out.dataSegs()
	total := 0
	for _, s := range data {
		total += s.Len()
	}
	if total != 6*packet.MSS {
		t.Fatalf("delivered %d bytes across wraparound, want %d", total, 6*packet.MSS)
	}
	if g.HeldSegments() != 0 {
		t.Fatal("segments held across wraparound")
	}
	for i := 1; i < len(data); i++ {
		if packet.SeqLT(data[i].StartSeq, data[i-1].StartSeq) {
			t.Fatal("out-of-order delivery across wraparound")
		}
	}
}

// Property: spraying two flowcell streams with arbitrary interleaving
// (no loss) through Presto GRO delivers every byte exactly once and in
// order, with zero timeout fires.
func TestPrestoReorderingMaskProperty(t *testing.T) {
	prop := func(seed uint64, nCellsRaw uint8) bool {
		nCells := int(nCellsRaw)%6 + 2
		const pktsPerCell = 4
		eng := sim.NewEngine()
		out := &sink{}
		g := NewPresto(eng, out, PrestoConfig{InitialEWMA: sim.Millisecond})
		rng := sim.NewRNG(seed)

		// Two "paths": even cells on path A, odd on path B. Each path
		// preserves its own order; the interleaving across paths is
		// random (that is exactly what flowcell spraying produces).
		type item struct {
			idx int
			fc  uint32
		}
		var pathA, pathB []item
		k := 0
		for c := 0; c < nCells; c++ {
			for j := 0; j < pktsPerCell; j++ {
				it := item{idx: k, fc: uint32(c + 1)}
				if c%2 == 0 {
					pathA = append(pathA, it)
				} else {
					pathB = append(pathB, it)
				}
				k++
			}
		}
		// The very first data packet arrives first (TCP slow start
		// guarantees nothing else is in flight); the rest interleave
		// randomly across the two paths.
		arrival := []item{pathA[0]}
		a, b := 1, 0
		for a < len(pathA) || b < len(pathB) {
			if a < len(pathA) && (b >= len(pathB) || rng.Float64() < 0.5) {
				arrival = append(arrival, pathA[a])
				a++
			} else {
				arrival = append(arrival, pathB[b])
				b++
			}
		}
		// Feed in batches of 3 with flushes between (poll events).
		for i, it := range arrival {
			g.Receive(pkt(it.idx, it.fc))
			if i%3 == 2 {
				g.Flush()
			}
		}
		g.Flush()
		eng.RunAll() // drain any hold timers

		if g.Stats().TimeoutFires != 0 {
			return false
		}
		total := 0
		last := uint32(0)
		first := true
		for _, s := range out.dataSegs() {
			total += s.Len()
			if !first && packet.SeqLT(s.StartSeq, last) {
				return false
			}
			last = s.EndSeq
			first = false
		}
		return total == nCells*pktsPerCell*packet.MSS && g.HeldSegments() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: official GRO and Presto GRO deliver the same total bytes
// (conservation) for any interleaving; Presto just packages them
// better.
func TestGROByteConservationProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		outO, outP := &sink{}, &sink{}
		o := NewOfficial(eng, outO)
		g := NewPresto(eng, outP, PrestoConfig{InitialEWMA: sim.Millisecond})
		perm := rng.Perm(24)
		for _, i := range perm {
			fc := uint32(i/6 + 1)
			o.Receive(pkt(i, fc))
			g.Receive(pkt(i, fc))
		}
		o.Flush()
		g.Flush()
		eng.RunAll()
		sum := func(s *sink) int {
			n := 0
			for _, seg := range s.dataSegs() {
				n += seg.Len()
			}
			return n
		}
		return sum(outO) == 24*packet.MSS && sum(outP) == 24*packet.MSS
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOfficialEvictionAccounting(t *testing.T) {
	eng := sim.NewEngine()
	out := &sink{}
	o := NewOfficial(eng, out)
	// In-order run past the 64KB cap: pushes happen but none are
	// pathological evictions.
	for i := 0; i < 50; i++ {
		o.Receive(pkt(i, 1))
	}
	o.Flush()
	if o.Stats().Evictions != 0 {
		t.Fatalf("cap-completion counted as eviction: %d", o.Stats().Evictions)
	}
	// Reordered interleave: every direction switch is an eviction.
	o2 := NewOfficial(eng, &sink{})
	o2.Receive(pkt(100, 5))
	o2.Receive(pkt(200, 6)) // different flowcell, discontiguous
	o2.Receive(pkt(101, 5))
	if o2.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", o2.Stats().Evictions)
	}
}

func TestPrestoNeverEvicts(t *testing.T) {
	eng := sim.NewEngine()
	g := NewPresto(eng, &sink{}, PrestoConfig{})
	order := []struct {
		i  int
		fc uint32
	}{{0, 1}, {5, 2}, {1, 1}, {6, 2}, {2, 1}}
	for _, x := range order {
		g.Receive(pkt(x.i, x.fc))
	}
	g.Flush()
	if g.Stats().Evictions != 0 {
		t.Fatal("presto GRO should never evict")
	}
}

// discard drops delivered segments, so the alloc tests below count the
// handler's allocations only.
type discard struct{}

func (discard) DeliverSegment(*packet.Segment) {}

// TestPrestoFlushHoldSteadyStateAllocs pins Algorithm 2's flush walk in
// its hold steady state: 8 flows each parked on a flowcell-boundary
// gap, so every Flush walks the held lists, recomputes the adaptive
// deadline and re-arms the hold timer without delivering anything.
// Every NIC pays this per poll while reordering is in flight; it must
// allocate nothing.
func TestPrestoFlushHoldSteadyStateAllocs(t *testing.T) {
	g := NewPresto(sim.NewEngine(), discard{}, PrestoConfig{})
	for fl := 0; fl < 8; fl++ {
		// Flowcell 1 in order, then the head of flowcell 3: the missing
		// flowcell 2 is a boundary gap, held until the adaptive timeout.
		for _, p := range []*packet.Packet{pkt(0, 1), pkt(1, 1), pkt(2, 1), pkt(3, 1), pkt(16, 3)} {
			p.Flow.Src.Port = uint16(4000 + fl)
			g.Receive(p)
		}
	}
	g.Flush()
	allocs := testing.AllocsPerRun(1000, g.Flush)
	if g.HeldSegments() != 8 {
		t.Fatalf("setup: held %d segments, want 8", g.HeldSegments())
	}
	if allocs != 0 {
		t.Fatalf("Flush with 8 held flows allocates %v per op, want 0", allocs)
	}
}

// TestPrestoReorderWindowAllocs pins merge + sorted insert + delivery
// of a reordered window: two flowcells (64 packets) arrive interleaved
// out of order and both boundary gaps resolve within the poll, so one
// Flush delivers the lot. Only the segments themselves may be
// allocated — at most 3 per window.
func TestPrestoReorderWindowAllocs(t *testing.T) {
	g := NewPresto(sim.NewEngine(), discard{}, PrestoConfig{})
	const cell = 32 // packets per flowcell
	base, fc := 0, uint32(1)
	p := pkt(0, 0)
	recv := func(i int, fc uint32) {
		p.Seq, p.FlowcellID = uint32((base+i)*packet.MSS), fc
		g.Receive(p)
	}
	window := func() {
		// Second half of cell fc+1 first, then cell fc, then the first
		// half of cell fc+1.
		for i := cell / 2; i < cell; i++ {
			recv(cell+i, fc+1)
		}
		for i := 0; i < cell; i++ {
			recv(i, fc)
		}
		for i := 0; i < cell/2; i++ {
			recv(cell+i, fc+1)
		}
		g.Flush()
		base += 2 * cell
		fc += 2
	}
	window() // prime flow state
	allocs := testing.AllocsPerRun(200, window)
	if g.HeldSegments() != 0 {
		t.Fatalf("setup: %d segments held after the window, want 0", g.HeldSegments())
	}
	if st := g.Stats(); st.PacketsIn != 202*2*cell {
		t.Fatalf("setup: %d packets in, want %d", st.PacketsIn, 202*2*cell)
	}
	if allocs > 3 {
		t.Fatalf("a 64-packet reorder window allocates %v, want <= 3", allocs)
	}
}

// agingPkt is packet i, in flowcell fc, of the k-th of many flows.
func agingPkt(k, i int, fc uint32) *packet.Packet {
	p := pkt(i, fc)
	p.Flow.Src.Port = uint16(k)
	p.Flow.Dst.Port = uint16(k >> 16)
	return p
}

// TestPrestoAgesIdleFlows: the flow table is soft state on the sender
// datapath's rule (packet.SweepIdle). An idle entry goes only when a new
// flow finds the table due a sweep; a flow holding a segment survives
// the sweep however old its last packet; an aged key starts clean, with
// a fresh first-seen ordinal; and a sweep that frees nothing backs off
// until the table has doubled, as TestSweepBacksOffWhenNothingAges pins
// for the vSwitch.
func TestPrestoAgesIdleFlows(t *testing.T) {
	eng := sim.NewEngine()
	// A hold budget past the idle horizon, so flow 0's boundary gap is
	// still held when the sweep runs.
	g := NewPresto(eng, discard{}, PrestoConfig{InitialEWMA: packet.FlowIdle})
	recv := func(ps ...*packet.Packet) {
		for _, p := range ps {
			g.Receive(p)
		}
		g.Flush()
	}
	const n = packet.FlowSweepMin
	recv(agingPkt(0, 0, 1), agingPkt(0, 2, 2)) // flow 0 holds packet 2
	for k := 1; k < n; k++ {
		recv(agingPkt(k, 0, 1))
	}

	eng.Run(packet.FlowIdle + sim.Second)
	recv(agingPkt(1, 1, 1)) // a known flow: no sweep
	if g.Flows() != n {
		t.Fatalf("%d entries before any new flow, want all %d: idleness alone must not drop an entry", g.Flows(), n)
	}
	recv(agingPkt(n, 0, 1)) // the table is due: flows 2..n-1 age out
	if g.Flows() != 3 || g.HeldSegments() != 1 {
		t.Fatalf("after the sweep: %d entries holding %d segments, want flows 0, 1 and %d holding 1", g.Flows(), g.HeldSegments(), n)
	}

	// Flow 2 again, further on in its old flowcell: against its aged-out
	// state that is a loss gap, on a clean entry it is in order.
	recv(agingPkt(2, 5, 1))
	st := g.Stats()
	if st.FlushReasons[FlushLossGap] != 0 || g.flows[agingPkt(2, 0, 0).Flow].ord != n+2 {
		t.Fatalf("aged key reused: %d loss-gap pushes, ordinal %d; want 0 and a fresh %d",
			st.FlushReasons[FlushLossGap], g.flows[agingPkt(2, 0, 0).Flow].ord, n+2)
	}

	// Every flow live: each sweep frees nothing, so sweeps must thin out.
	const live = 32000
	g = NewPresto(sim.NewEngine(), discard{}, PrestoConfig{})
	sweeps, visited := 0, 0
	for k := 0; k < live; k++ {
		before := g.sweepAt
		recv(agingPkt(k, 0, 1))
		if g.sweepAt != before {
			sweeps++
			visited += g.Flows() - 1 // the table as the sweep saw it
		}
	}
	if g.Flows() != live {
		t.Fatalf("table holds %d of %d live flows", g.Flows(), live)
	}
	if limit := bits.Len(uint(live/packet.FlowSweepMin)) + 1; sweeps == 0 || sweeps > limit {
		t.Errorf("%d sweeps admitting %d live flows, want 1..%d", sweeps, live, limit)
	}
	if visited > live {
		t.Errorf("sweeps visited %d entries admitting %d flows", visited, live)
	}
}
