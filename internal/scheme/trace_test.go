package scheme

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/vswitch"
)

// sent records every segment the edge hands to the NIC.
type sent struct{ segs []*packet.Segment }

func (c *sent) SendSegment(s *packet.Segment) { c.segs = append(c.segs, s) }

// newEdge builds host 0's vSwitch for a scheme spec ("presto",
// "flowlet:gap=100us") exactly as the cluster does: resolve the params,
// construct the policy through the registry, hand it to vswitch.New.
func newEdge(t testing.TB, spec string) (*sim.Engine, *vswitch.VSwitch, *sent) {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	out := &sent{}
	rng := sim.NewRNG(42)
	return eng, vswitch.New(eng, 0, out, s.New(Host{ID: 0, Fork: rng.Fork}, s.Resolved)), out
}

func labels(dst packet.HostID, trees ...int) []packet.MAC {
	macs := make([]packet.MAC, len(trees))
	for i, tr := range trees {
		macs[i] = packet.ShadowMAC(dst, tr)
	}
	return macs
}

// The scripted streams' four destinations.
const (
	dstFour     = packet.HostID(4) // four distinct labels
	dstWeighted = packet.HostID(5) // §3.3 duplicated-label weights
	dstSingle   = packet.HostID(6) // one label
	dstUnmapped = packet.HostID(7) // never mapped: real MAC
)

// mapping is one controller push.
type mapping struct {
	dst  packet.HostID
	macs []packet.MAC
}

// startMaps are installed before a script runs; remaps are what a
// script can push mid-run: same-length, shorter, longer, withdrawn.
var (
	startMaps = []mapping{
		{dstFour, labels(dstFour, 0, 1, 2, 3)},
		{dstWeighted, labels(dstWeighted, 0, 1, 2, 1)},
		{dstSingle, labels(dstSingle, 2)},
	}
	remaps = []mapping{
		{dstFour, labels(dstFour, 0, 0, 1, 2)},
		{dstWeighted, labels(dstWeighted, 0, 2)},
		{dstSingle, labels(dstSingle, 0, 1, 2, 3, 4, 5)},
		{dstFour, nil},
		{dstFour, labels(dstFour, 3, 2, 1, 0)},
	}
)

// scriptFlows are three flows to each scripted destination.
var scriptFlows = func() []packet.FlowKey {
	var flows []packet.FlowKey
	for _, dst := range []packet.HostID{dstFour, dstWeighted, dstSingle, dstUnmapped} {
		for p := 0; p < 3; p++ {
			flows = append(flows, packet.FlowKey{
				Src: packet.Addr{Host: 0, Port: uint16(1000 + p)},
				Dst: packet.Addr{Host: dst, Port: uint16(2000 + 7*p)},
			})
		}
	}
	return flows
}()

// step is one scripted segment: which flow, how many bytes, how long
// after the previous one, and (remap > 0) remaps[remap-1] pushed just
// before it.
type step struct {
	flow  int
	size  int
	gap   sim.Time
	remap int
}

// drive installs startMaps on the scheme's edge, plays script through
// it and returns the edge and the segments it emitted, one per step.
func drive(t testing.TB, spec string, script []step) (*vswitch.VSwitch, []*packet.Segment) {
	t.Helper()
	eng, vs, out := newEdge(t, spec)
	for _, m := range startMaps {
		vs.SetMapping(m.dst, m.macs)
	}
	for _, st := range script {
		eng.Run(eng.Now() + st.gap)
		if st.remap > 0 {
			vs.SetMapping(remaps[st.remap-1].dst, remaps[st.remap-1].macs)
		}
		vs.Send(&packet.Segment{Flow: scriptFlows[st.flow], EndSeq: uint32(st.size), Flags: packet.FlagACK})
	}
	if len(out.segs) != len(script) {
		t.Fatalf("%s: edge passed %d of %d segments", spec, len(out.segs), len(script))
	}
	return vs, out.segs
}

// labelTrace plays a fixed script through the scheme's edge and returns
// an FNV-64a digest of every (flow, DstMAC, FlowcellID) in send order
// followed by the datapath counters. The script is independent of the
// scheme: 6,000 segments in short bursts over the 12 script flows, sizes
// cycling MSS / 64 KB / random, gaps cycling 5 µs / 150 µs / 700 µs by a
// different period, a same-length remap of dstFour at segment 2,000 and
// a shorter remap of dstWeighted at segment 4,000.
func labelTrace(t *testing.T, spec string) uint64 {
	rng := sim.NewRNG(2015)
	gaps := [...]sim.Time{5 * sim.Microsecond, 150 * sim.Microsecond, 700 * sim.Microsecond, 5 * sim.Microsecond, 5 * sim.Microsecond}
	script := make([]step, 6000)
	f := 0
	for i := range script {
		// Bursts: stay on a flow for three segments on average, so
		// per-flow gaps fall on both sides of the flowlet timeouts.
		if rng.Intn(3) == 0 {
			f = rng.Intn(len(scriptFlows))
		}
		st := step{flow: f, gap: gaps[i%len(gaps)]}
		switch i % 3 {
		case 0:
			st.size = packet.MSS
		case 1:
			st.size = packet.MaxSegSize
		default:
			st.size = 1 + rng.Intn(packet.MaxSegSize)
		}
		switch i {
		case 2000:
			st.remap = 1 // dstFour, same length
		case 4000:
			st.remap = 2 // dstWeighted, shorter
		}
		script[i] = st
	}
	vs, segs := drive(t, spec, script)

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range segs {
		word(uint64(s.Flow.Src.Host)<<48 | uint64(s.Flow.Src.Port)<<32 | uint64(s.Flow.Dst.Host)<<16 | uint64(s.Flow.Dst.Port))
		h.Write(s.DstMAC[:])
		word(uint64(s.FlowcellID))
	}
	word(vs.Stats.Flowcells)
	for _, n := range vs.PathFlowcells() {
		word(n)
	}
	word(vs.Stats.SegmentsOut)
	word(vs.Stats.MACRewrites)
	return h.Sum64()
}

// labelTracePins are labelTrace's digests, recorded on the tree before
// the flow-keyed policies were folded onto one datapath. A label-rule
// change that moves one of them changed what some scheme puts on the
// wire; re-record only for an intended behaviour change.
var labelTracePins = map[string]uint64{
	"diffflow":     0x2e37f636f31243ec,
	"ecmp":         0xab0a193b77aaf30c,
	"flowlet":      0x5f73092a3d21dcdb,
	"mptcp":        0xab0a193b77aaf30c,
	"per-packet":   0x3e46080ddc1aabf,
	"presto":       0xe73a29be551dc2cb,
	"presto-ecmp":  0xa9241789088a400c,
	"rdna-balance": 0xa1dbc55e47bc2ca,
	"sprinklers":   0xce96b2358e2bab33,
	"spritz":       0xc0ca8e7a2a3620bb,

	"presto:cell=16KB":            0x4bdd596191883665,
	"flowlet:gap=100us":           0x4739c76b76bd24d2,
	"diffflow:threshold=256KB":    0x4ea2d4c1bd590407,
	"rdna-balance:elephant=256KB": 0x483bfdc46ac40109,
}

// TestLabelTracePinned holds every registered scheme (and one
// non-default value of each datapath parameter) to its recorded label
// trace. A scheme registered without a pin fails by name.
func TestLabelTracePinned(t *testing.T) {
	specs := append(Names(),
		"presto:cell=16KB", "flowlet:gap=100us", "diffflow:threshold=256KB", "rdna-balance:elephant=256KB")
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			want, ok := labelTracePins[spec]
			got := labelTrace(t, spec)
			if !ok {
				t.Fatalf("scheme %q has no pinned label trace; record %#x in labelTracePins", spec, got)
			}
			if got != want {
				t.Fatalf("label trace %#x, pinned %#x", got, want)
			}
		})
	}
}
