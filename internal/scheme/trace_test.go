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
	name, vals, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	params, err := def.Resolve(vals)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	out := &sent{}
	rng := sim.NewRNG(42)
	return eng, vswitch.New(eng, 0, out, def.New(Host{ID: 0, Fork: rng.Fork}, params)), out
}

func labels(dst packet.HostID, trees ...int) []packet.MAC {
	macs := make([]packet.MAC, len(trees))
	for i, tr := range trees {
		macs[i] = packet.ShadowMAC(dst, tr)
	}
	return macs
}

// The scripted stream's four destinations.
const (
	dstFour     = packet.HostID(4) // four distinct labels
	dstWeighted = packet.HostID(5) // §3.3 duplicated-label weights
	dstSingle   = packet.HostID(6) // one label
	dstUnmapped = packet.HostID(7) // no mapping: real MAC
)

// labelTrace drives the fixed script through the scheme's edge and
// returns an FNV-64a digest of every (flow, DstMAC, FlowcellID) in send
// order followed by the datapath counters. The script is independent of
// the scheme: 6,000 segments in short bursts over 12 flows (3 per
// destination), sizes cycling MSS / 64 KB / random, gaps cycling
// 5 µs / 150 µs / 700 µs by a different period, a same-length remap of
// dstFour at segment 2,000 and a shorter remap of dstWeighted at
// segment 4,000.
func labelTrace(t *testing.T, spec string) uint64 {
	eng, vs, out := newEdge(t, spec)
	vs.SetMapping(dstFour, labels(dstFour, 0, 1, 2, 3))
	vs.SetMapping(dstWeighted, labels(dstWeighted, 0, 1, 2, 1))
	vs.SetMapping(dstSingle, labels(dstSingle, 2))

	var flows []packet.FlowKey
	for _, dst := range []packet.HostID{dstFour, dstWeighted, dstSingle, dstUnmapped} {
		for p := 0; p < 3; p++ {
			flows = append(flows, packet.FlowKey{
				Src: packet.Addr{Host: 0, Port: uint16(1000 + p)},
				Dst: packet.Addr{Host: dst, Port: uint16(2000 + 7*p)},
			})
		}
	}
	const segments = 6000
	script := sim.NewRNG(2015)
	seq := make([]uint32, len(flows))
	gaps := [...]sim.Time{5 * sim.Microsecond, 150 * sim.Microsecond, 700 * sim.Microsecond, 5 * sim.Microsecond, 5 * sim.Microsecond}
	at := sim.Time(0)
	f := 0
	for i := 0; i < segments; i++ {
		// Bursts: stay on a flow for three segments on average, so
		// per-flow gaps fall on both sides of the flowlet timeouts.
		if script.Intn(3) == 0 {
			f = script.Intn(len(flows))
		}
		var n int
		switch i % 3 {
		case 0:
			n = packet.MSS
		case 1:
			n = packet.MaxSegSize
		default:
			n = 1 + script.Intn(packet.MaxSegSize)
		}
		s := &packet.Segment{Flow: flows[f], StartSeq: seq[f], EndSeq: seq[f] + uint32(n), Flags: packet.FlagACK}
		seq[f] += uint32(n)
		at += gaps[i%len(gaps)]
		i := i
		eng.At(at, func() {
			switch i {
			case 2000:
				vs.SetMapping(dstFour, labels(dstFour, 0, 0, 1, 2))
			case 4000:
				vs.SetMapping(dstWeighted, labels(dstWeighted, 0, 2))
			}
			vs.Send(s)
		})
	}
	eng.RunAll()
	if len(out.segs) != segments {
		t.Fatalf("%s: edge passed %d of %d segments", spec, len(out.segs), segments)
	}

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range out.segs {
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
