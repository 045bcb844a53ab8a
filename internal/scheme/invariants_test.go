package scheme

import (
	"slices"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

// algorithm1Cell names the schemes whose flowcell IDs must equal
// Algorithm 1's byte counter run on the same segment sizes, and their
// default cell size.
var algorithm1Cell = map[string]int{
	"presto":      packet.MaxSegSize,
	"presto-ecmp": packet.MaxSegSize,
	"per-packet":  packet.MSS,
	"spritz":      packet.MaxSegSize,
}

// audit plays script through the scheme's edge and checks what must
// hold for every registered scheme on any segment stream: the per-path
// counts sum to Stats.Flowcells; a flow's flowcell IDs never decrease;
// every label is one the controller installed for that destination, or
// the real MAC, and a never-mapped destination gets the real MAC; one
// (flow, flowcell) keeps one label while the mapping stands; and for
// the Algorithm 1 schemes the IDs are exactly the reference counter's.
func audit(t testing.TB, name string, script []step) {
	t.Helper()
	vs, segs := drive(t, name, script)

	installed := map[packet.HostID][]packet.MAC{}
	pushes := map[packet.HostID]int{}
	install := func(m mapping) {
		installed[m.dst] = append(installed[m.dst], m.macs...)
		pushes[m.dst]++
	}
	for _, m := range startMaps {
		install(m)
	}
	type cellKey struct {
		flow   int
		cell   uint32
		pushes int // mappings pushed for the destination so far
	}
	cellLabel := map[cellKey]packet.MAC{}
	lastCell := make([]uint32, len(scriptFlows))
	refBytes := make([]int, len(scriptFlows)) // Algorithm 1, verbatim
	refCell := make([]uint32, len(scriptFlows))
	cellSize, isAlg1 := algorithm1Cell[name]

	for i, st := range script {
		if st.remap > 0 {
			install(remaps[st.remap-1])
		}
		s, flow := segs[i], scriptFlows[st.flow]
		dst := flow.Dst.Host

		if packet.SeqLT(s.FlowcellID, lastCell[st.flow]) {
			t.Fatalf("%s: step %d: flow %v flowcell ID fell %d -> %d", name, i, flow, lastCell[st.flow], s.FlowcellID)
		}
		lastCell[st.flow] = s.FlowcellID
		if s.DstMAC != packet.HostMAC(dst) && !slices.Contains(installed[dst], s.DstMAC) {
			t.Fatalf("%s: step %d: flow %v stamped %v, never installed for host %d", name, i, flow, s.DstMAC, dst)
		}
		k := cellKey{st.flow, s.FlowcellID, pushes[dst]}
		if mac, seen := cellLabel[k]; seen && mac != s.DstMAC {
			t.Fatalf("%s: step %d: flow %v flowcell %d rode %v then %v under one mapping", name, i, flow, s.FlowcellID, mac, s.DstMAC)
		}
		cellLabel[k] = s.DstMAC
		if isAlg1 {
			if refBytes[st.flow]+st.size > cellSize {
				refBytes[st.flow] = st.size
				refCell[st.flow]++
			} else {
				refBytes[st.flow] += st.size
			}
			if s.FlowcellID != refCell[st.flow] {
				t.Fatalf("%s: step %d: flow %v flowcell %d, Algorithm 1 says %d", name, i, flow, s.FlowcellID, refCell[st.flow])
			}
		}
	}
	var sum uint64
	for _, n := range vs.PathFlowcells() {
		sum += n
	}
	if sum != vs.Stats.Flowcells {
		t.Fatalf("%s: per-path flowcells sum to %d, Stats.Flowcells = %d", name, sum, vs.Stats.Flowcells)
	}
}

// decodeScript turns fuzz bytes into a script, three bytes a step:
// flow (and, rarely, a remap), size class, gap class.
func decodeScript(data []byte) []step {
	sizes := [...]int{1, 512, packet.MSS, packet.MSS + 1, 16 << 10, packet.MaxSegSize - 1, packet.MaxSegSize}
	gaps := [...]sim.Time{0, 5 * sim.Microsecond, 150 * sim.Microsecond, 700 * sim.Microsecond, 3 * sim.Millisecond}
	var script []step
	for ; len(data) >= 3; data = data[3:] {
		st := step{
			flow: int(data[0]&0x0f) % len(scriptFlows),
			size: sizes[int(data[1])%len(sizes)],
			gap:  gaps[int(data[2])%len(gaps)],
		}
		if data[0]>>4 == 0x0f {
			st.remap = 1 + int(data[1]>>4)%len(remaps)
		}
		script = append(script, st)
	}
	return script
}

// FuzzSchemeLabels is the sender-side oracle at unit level: any
// registered scheme, any segment stream, any remap schedule — audit's
// invariants hold.
func FuzzSchemeLabels(f *testing.F) {
	names := Names()
	for i := range names {
		f.Add(uint8(i), []byte("\x00\x06\x01\x00\x06\x03\xf4\x12\x02\x03\x02\x00\x00\x06\x04\xf0\x30\x01\x00\x06\x01"))
	}
	f.Fuzz(func(t *testing.T, scheme uint8, data []byte) {
		audit(t, names[int(scheme)%len(names)], decodeScript(data))
	})
}

// TestSchemeInvariants holds every registered scheme to the datapath
// contract; a new scheme is covered by registering it.
func TestSchemeInvariants(t *testing.T) {
	// A long random script: every size and gap class, every remap.
	rng := sim.NewRNG(7)
	random := make([]byte, 3*4000)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			audit(t, name, decodeScript(random))
			t.Run("aging", func(t *testing.T) { agingShrinksDeterministically(t, name) })
			t.Run("allocs", func(t *testing.T) { knownFlowSelectsWithoutAllocating(t, name) })
		})
	}
}

// agingShrinksDeterministically opens more flows than the datapath's
// aging threshold, 5 ms apart so the early ones are idle far past the
// horizon when the table fills, and checks the state shrank and that
// two runs stamp identical labels — aging must not perturb selection.
func agingShrinksDeterministically(t *testing.T, name string) {
	const flows = 4096 + 300
	run := func() ([]packet.MAC, int) {
		eng, vs, out := newEdge(t, name)
		vs.SetMapping(dstFour, labels(dstFour, 0, 1, 2, 3))
		for i := 0; i < flows; i++ {
			eng.Run(eng.Now() + 5*sim.Millisecond)
			vs.Send(&packet.Segment{
				Flow: packet.FlowKey{
					Src: packet.Addr{Host: 0, Port: uint16(i)},
					Dst: packet.Addr{Host: dstFour, Port: uint16(2000 + i>>16)},
				},
				EndSeq: 1024, Flags: packet.FlagACK,
			})
		}
		macs := make([]packet.MAC, len(out.segs))
		for i, s := range out.segs {
			macs[i] = s.DstMAC
		}
		return macs, vs.Policy().(interface{ States() int }).States()
	}
	macs1, states1 := run()
	macs2, states2 := run()
	if states1 > 4096 {
		t.Errorf("%d records held after %d mostly idle flows; aging did not shrink the table", states1, flows)
	}
	if states1 != states2 || !slices.Equal(macs1, macs2) {
		t.Errorf("two identical runs differ: %d vs %d records, labels equal = %v", states1, states2, slices.Equal(macs1, macs2))
	}
}

type discard struct{}

func (discard) SendSegment(*packet.Segment) {}

// knownFlowSelectsWithoutAllocating: once a flow is in the table,
// stamping its segments — every one opening a new flowcell — is free
// of heap allocation.
func knownFlowSelectsWithoutAllocating(t *testing.T, name string) {
	_, vs, _ := newEdge(t, name)
	vs.SetSender(discard{})
	vs.SetMapping(dstFour, labels(dstFour, 0, 1, 2, 3))
	seg := &packet.Segment{Flow: scriptFlows[0], EndSeq: packet.MaxSegSize, Flags: packet.FlagACK}
	for i := 0; i < 8; i++ {
		vs.Send(seg)
	}
	if n := testing.AllocsPerRun(200, func() { vs.Send(seg) }); n != 0 {
		t.Errorf("Select on a known flow allocates %v times per segment", n)
	}
}

// TestElephantsLeaveTheSpray checks the two elephant-aware schemes at
// their default 1 MB thresholds: 64 KB segments rotate labels through
// the sixteenth, the seventeenth crosses the threshold and opens one
// last flowcell, and the flow then stays on that label — for RDNA
// Balance a label of the reserved suffix that no mouse may use.
func TestElephantsLeaveTheSpray(t *testing.T) {
	for _, name := range []string{"diffflow", "rdna-balance"} {
		_, vs, out := newEdge(t, name)
		macs := labels(dstFour, 0, 1, 2, 3)
		vs.SetMapping(dstFour, macs)
		for i := 0; i < 40; i++ {
			vs.Send(&packet.Segment{Flow: scriptFlows[0], EndSeq: packet.MaxSegSize, Flags: packet.FlagACK})
		}
		for i, s := range out.segs {
			want := uint32(min(i, 16))
			if s.FlowcellID != want {
				t.Fatalf("%s: segment %d in flowcell %d, want %d", name, i, s.FlowcellID, want)
			}
			if i > 16 && s.DstMAC != out.segs[16].DstMAC {
				t.Fatalf("%s: elephant moved from %v to %v at segment %d", name, out.segs[16].DstMAC, s.DstMAC, i)
			}
			if name == "rdna-balance" && (s.DstMAC == macs[3]) != (i >= 16) {
				t.Fatalf("%s: segment %d rides %v; the last label is for elephants only", name, i, s.DstMAC)
			}
		}
	}
}
