package vswitch

import (
	"math/bits"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

type capture struct{ segs []*packet.Segment }

func (c *capture) SendSegment(s *packet.Segment) { c.segs = append(c.segs, s) }

type epCapture struct{ segs []*packet.Segment }

func (c *epCapture) DeliverSegment(s *packet.Segment) { c.segs = append(c.segs, s) }

var flowAB = packet.FlowKey{
	Src: packet.Addr{Host: 0, Port: 1000},
	Dst: packet.Addr{Host: 4, Port: 2000},
}

func seg(startKB, lenKB int) *packet.Segment {
	return &packet.Segment{
		Flow:     flowAB,
		StartSeq: uint32(startKB * 1024),
		EndSeq:   uint32((startKB + lenKB) * 1024),
		Flags:    packet.FlagACK,
	}
}

func labelSet(n int) []packet.MAC {
	macs := make([]packet.MAC, n)
	for i := range macs {
		macs[i] = packet.ShadowMAC(4, i)
	}
	return macs
}

func TestPrestoAlgorithm1RoundRobin(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPresto(packet.MaxSegSize))
	vs.SetMapping(4, labelSet(4))

	// 8 segments of 64KB: each fills one flowcell, so labels rotate
	// every segment and flowcell IDs increase sequentially.
	for i := 0; i < 8; i++ {
		vs.Send(seg(i*64, 64))
	}
	if len(out.segs) != 8 {
		t.Fatalf("sent %d", len(out.segs))
	}
	for i, s := range out.segs {
		wantTree := i % 4
		if s.DstMAC.ShadowTree() != wantTree {
			t.Errorf("segment %d on tree %d, want %d", i, s.DstMAC.ShadowTree(), wantTree)
		}
		if int(s.FlowcellID) != i {
			t.Errorf("segment %d flowcell %d, want %d", i, s.FlowcellID, i)
		}
	}
}

func TestPrestoSmallSegmentsShareFlowcell(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPresto(packet.MaxSegSize))
	vs.SetMapping(4, labelSet(2))
	// 16KB segments: four fit in one 64KB flowcell.
	for i := 0; i < 8; i++ {
		vs.Send(seg(i*16, 16))
	}
	fcs := map[uint32]int{}
	for _, s := range out.segs {
		fcs[s.FlowcellID]++
	}
	if len(fcs) != 2 || fcs[0] != 4 || fcs[1] != 4 {
		t.Fatalf("flowcell grouping = %v, want two flowcells of 4 segments", fcs)
	}
	// Both segments of one flowcell share a label.
	if out.segs[0].DstMAC != out.segs[3].DstMAC {
		t.Error("same flowcell used different labels")
	}
	if out.segs[0].DstMAC == out.segs[4].DstMAC {
		t.Error("consecutive flowcells did not rotate labels")
	}
}

func TestPrestoMiceStayInOneFlowcell(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPresto(packet.MaxSegSize))
	vs.SetMapping(4, labelSet(8))
	// A 50KB mouse: one flowcell, one path — no reordering exposure
	// (§2.1).
	vs.Send(seg(0, 50))
	if out.segs[0].FlowcellID != 0 {
		t.Fatal("mouse split across flowcells")
	}
}

func TestPrestoWeightedMultipathing(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPresto(packet.MaxSegSize))
	// Weights 0.25/0.5/0.25 via the duplicated sequence p1,p2,p3,p2
	// from §3.3.
	p1, p2, p3 := packet.ShadowMAC(4, 0), packet.ShadowMAC(4, 1), packet.ShadowMAC(4, 2)
	vs.SetMapping(4, []packet.MAC{p1, p2, p3, p2})
	counts := map[packet.MAC]int{}
	for i := 0; i < 64; i++ {
		vs.Send(seg(i*64, 64))
	}
	for _, s := range out.segs {
		counts[s.DstMAC]++
	}
	if counts[p1] != 16 || counts[p2] != 32 || counts[p3] != 16 {
		t.Fatalf("weighted split %v, want 16/32/16", counts)
	}
}

// TestSpritzSchedMatchesComparesLabels pins the rebuild trigger: a
// remap that keeps the slot count is still a different mapping.
func TestSpritzSchedMatchesComparesLabels(t *testing.T) {
	a, b, c, d := packet.ShadowMAC(4, 0), packet.ShadowMAC(4, 1), packet.ShadowMAC(4, 2), packet.ShadowMAC(4, 3)
	sc := &spritzSched{}
	sc.rebuild([]packet.MAC{a, b, c, d})
	if !sc.matches([]packet.MAC{a, b, c, d}) {
		t.Fatal("schedule does not match the mapping it was built from")
	}
	if sc.matches([]packet.MAC{a, a, b, c}) {
		t.Fatal("same-length remap [A,A,B,C] matches a schedule built from [A,B,C,D]")
	}
}

// TestSpritzFollowsSameLengthRemap re-weights a destination mid-flow to
// a list of the same length that drops one tree (what the controller
// pushes on a link failure): from the next flowcell on, nothing may be
// stamped with the dropped label.
func TestSpritzFollowsSameLengthRemap(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewSpritz(64*1024))
	macs := labelSet(4)
	vs.SetMapping(4, macs)
	for i := 0; i < 8; i++ {
		vs.Send(seg(i*64, 64))
	}
	dropped := macs[3]
	vs.SetMapping(4, []packet.MAC{macs[0], macs[0], macs[1], macs[2]})
	for i := 8; i < 40; i++ {
		vs.Send(seg(i*64, 64)) // every 64 KB segment opens a new flowcell
	}
	counts := map[packet.MAC]int{}
	for _, s := range out.segs[8:] {
		counts[s.DstMAC]++
	}
	if counts[dropped] != 0 {
		t.Fatalf("%d of 32 flowcells after the remap still ride the dropped label: %v", counts[dropped], counts)
	}
	if counts[macs[0]] != 16 || counts[macs[1]] != 8 || counts[macs[2]] != 8 {
		t.Fatalf("post-remap split %v, want 16/8/8 over the new weights", counts)
	}
}

func TestPrestoNoMappingUsesRealMAC(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPresto(packet.MaxSegSize))
	vs.Send(seg(0, 64))
	if out.segs[0].DstMAC != packet.HostMAC(4) {
		t.Fatal("expected real MAC without mappings")
	}
}

func TestECMPPinsFlowToOnePath(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewECMP(sim.NewRNG(7)))
	vs.SetMapping(4, labelSet(4))
	for i := 0; i < 20; i++ {
		vs.Send(seg(i*64, 64))
	}
	first := out.segs[0].DstMAC
	for i, s := range out.segs {
		if s.DstMAC != first {
			t.Fatalf("segment %d changed path under ECMP", i)
		}
		if s.FlowcellID != 0 {
			t.Fatalf("ECMP stamped flowcell %d", s.FlowcellID)
		}
	}
}

func TestECMPDifferentFlowsCanDiffer(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewECMP(sim.NewRNG(1)))
	vs.SetMapping(4, labelSet(8))
	seen := map[packet.MAC]bool{}
	for p := 0; p < 64; p++ {
		s := seg(0, 64)
		s.Flow.Src.Port = uint16(1000 + p)
		vs.Send(s)
		seen[s.DstMAC] = true
	}
	if len(seen) < 3 {
		t.Fatalf("64 flows hashed onto %d paths; expected spread", len(seen))
	}
}

func TestFlowletGapDetection(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	fl := NewFlowlet(500 * sim.Microsecond).(*flowlet)
	vs := New(eng, 0, out, fl)
	vs.SetMapping(4, labelSet(4))

	send := func(at sim.Time, s *packet.Segment) {
		eng.At(at, func() { vs.Send(s) })
	}
	// Burst 1 at t=0: two segments, same flowlet.
	send(0, seg(0, 64))
	send(100*sim.Microsecond, seg(64, 64))
	// Burst 2 after a 1ms gap: new flowlet, next path.
	send(1100*sim.Microsecond, seg(128, 64))
	eng.RunAll()

	if out.segs[0].DstMAC != out.segs[1].DstMAC {
		t.Fatal("segments within the gap switched paths")
	}
	if out.segs[2].DstMAC == out.segs[1].DstMAC {
		t.Fatal("flowlet boundary did not switch paths")
	}
	sizes := fl.FlowletSizes(flowAB)
	if len(sizes) != 2 || sizes[0] != 2*64*1024 || sizes[1] != 64*1024 {
		t.Fatalf("flowlet sizes = %v", sizes)
	}
}

func TestPrestoECMPKeepsRealMAC(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPrestoECMP())
	vs.SetMapping(4, labelSet(4))
	vs.Send(seg(0, 64))
	vs.Send(seg(64, 64))
	if out.segs[0].DstMAC.IsShadow() {
		t.Fatal("presto-ecmp must not use labels")
	}
	if out.segs[1].FlowcellID != 1 {
		t.Fatal("presto-ecmp must still stamp flowcells")
	}
}

func TestPerPacketRotatesEveryMSS(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	vs := New(eng, 0, out, NewPerPacket())
	vs.SetMapping(4, labelSet(4))
	for i := 0; i < 4; i++ {
		s := &packet.Segment{
			Flow:     flowAB,
			StartSeq: uint32(1 + i*packet.MSS),
			EndSeq:   uint32(1 + (i+1)*packet.MSS),
			Flags:    packet.FlagACK,
		}
		vs.Send(s)
	}
	fcs := map[uint32]bool{}
	for _, s := range out.segs {
		fcs[s.FlowcellID] = true
	}
	if len(fcs) != 4 {
		t.Fatalf("per-packet produced %d flowcells over 4 MSS, want 4", len(fcs))
	}
}

func TestReceiveDemuxAndMACRestore(t *testing.T) {
	eng := sim.NewEngine()
	vs := New(eng, 4, &capture{}, NewPresto(packet.MaxSegSize))
	ep := &epCapture{}
	// Local endpoint sends on the reverse of flowAB.
	vs.Register(flowAB.Reverse(), ep)
	in := &packet.Segment{
		Flow:     flowAB,
		StartSeq: 1, EndSeq: 1001,
		DstMAC: packet.ShadowMAC(4, 2),
		Flags:  packet.FlagACK,
	}
	vs.DeliverSegment(in)
	if len(ep.segs) != 1 {
		t.Fatal("segment not demuxed to endpoint")
	}
	if ep.segs[0].DstMAC != packet.HostMAC(4) {
		t.Fatal("shadow MAC not restored to real MAC")
	}
	if vs.Stats.MACRestores != 1 {
		t.Fatal("restore not counted")
	}
	// Unknown flow: dropped silently.
	vs.DeliverSegment(&packet.Segment{Flow: flowAB.Reverse(), Flags: packet.FlagACK})
	if len(ep.segs) != 1 {
		t.Fatal("unknown flow misdelivered")
	}
}

func TestPolicyFlowStateGC(t *testing.T) {
	eng := sim.NewEngine()
	out := &capture{}
	p := NewPresto(packet.MaxSegSize).(*sender)
	vs := New(eng, 0, out, p)
	vs.SetMapping(4, labelSet(2))
	// Create more flows than the GC threshold, spaced in time so the
	// early ones go idle.
	for i := 0; i < policyGCThreshold+100; i++ {
		s := seg(0, 1)
		s.Flow.Src.Port = uint16(i)
		s.Flow.Dst.Port = uint16(i >> 16)
		eng.At(sim.Time(i)*20*sim.Millisecond, func() { vs.Send(s) })
	}
	eng.RunAll()
	if len(p.flows) > policyGCThreshold {
		t.Fatalf("flow table grew to %d entries; GC did not run", len(p.flows))
	}
}

// TestPolicyGCShrinksDeterministically pushes more distinct flows than
// the GC threshold through the sender datapath under a cursor rule, the
// rule that embeds its datapath and the rule that draws randomness (the
// registry-wide version is TestSchemeInvariants), advances simulated
// time past the idle horizon, and checks that (a) the flow table was
// swept back under the threshold and (b) the label sequence is
// identical across two runs — GC must not perturb path selection.
func TestPolicyGCShrinksDeterministically(t *testing.T) {
	const flows = policyGCThreshold + 300
	cases := []struct {
		name  string
		build func() Policy
	}{
		{"presto", func() Policy { return NewPresto(packet.MaxSegSize) }},
		{"flowlet", func() Policy { return NewFlowlet(500 * sim.Microsecond) }},
		{"ecmp", func() Policy { return NewECMP(sim.NewRNG(7)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() ([]packet.MAC, int) {
				eng := sim.NewEngine()
				out := &capture{}
				p := tc.build()
				vs := New(eng, 0, out, p)
				vs.SetMapping(4, labelSet(4))
				for i := 0; i < flows; i++ {
					s := seg(0, 1)
					s.Flow.Src.Port = uint16(i)
					s.Flow.Dst.Port = uint16(i >> 16)
					// 5ms spacing: by the time the table fills, the
					// early flows are idle far past policyGCIdle.
					eng.At(sim.Time(i)*5*sim.Millisecond, func() { vs.Send(s) })
				}
				eng.RunAll()
				macs := make([]packet.MAC, len(out.segs))
				for i, s := range out.segs {
					macs[i] = s.DstMAC
				}
				return macs, p.(interface{ States() int }).States()
			}
			macs1, size1 := run()
			macs2, size2 := run()
			if size1 > policyGCThreshold {
				t.Errorf("table holds %d entries after %d idle flows; GC did not shrink it", size1, flows)
			}
			if size1 != size2 {
				t.Errorf("table size differs across runs: %d vs %d", size1, size2)
			}
			if len(macs1) != len(macs2) {
				t.Fatalf("output length differs: %d vs %d", len(macs1), len(macs2))
			}
			for i := range macs1 {
				if macs1[i] != macs2[i] {
					t.Fatalf("label %d differs across identical runs: %v vs %v", i, macs1[i], macs2[i])
				}
			}
		})
	}
}

// TestSweepBacksOffWhenNothingAges admits 32,000 flows that never go
// idle. A sweep that frees nothing must not run again until the table
// has doubled: at most ⌈log2(n/threshold)⌉+1 sweeps, visiting fewer
// entries in total than there are flows — not one full rescan per new
// flow, which made admitting a flow cost ~360× more at 32,000 live
// flows than at 4,000.
func TestSweepBacksOffWhenNothingAges(t *testing.T) {
	const flows = 32000
	p := NewPresto(packet.MaxSegSize).(*sender)
	vs := New(sim.NewEngine(), 0, &capture{}, p)
	sweeps, visited := 0, 0
	for i := 0; i < flows; i++ {
		before := p.sweepAt
		s := seg(0, 1)
		s.Flow.Src.Port = uint16(i)
		s.Flow.Dst.Port = uint16(i >> 16)
		vs.Send(s)
		if p.sweepAt != before {
			sweeps++
			visited += len(p.flows) - 1 // the table as the sweep saw it
		}
	}
	if len(p.flows) != flows {
		t.Fatalf("table holds %d of %d live flows", len(p.flows), flows)
	}
	if limit := bits.Len(uint(flows/policyGCThreshold)) + 1; sweeps == 0 || sweeps > limit {
		t.Errorf("%d sweeps admitting %d live flows, want 1..%d", sweeps, flows, limit)
	}
	if visited > flows {
		t.Errorf("sweeps visited %d entries admitting %d flows", visited, flows)
	}
}
