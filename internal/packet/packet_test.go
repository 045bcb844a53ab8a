package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPacketHotFieldsShareOneLine pins Packet's layout: the fields every
// hop reads end within the first 64 bytes, and the packet is exactly 128
// bytes, its allocation size class, so it starts on a cache line. A new
// field must not split the hot line or change the size class.
func TestPacketHotFieldsShareOneLine(t *testing.T) {
	var p Packet
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"DstMAC", unsafe.Offsetof(p.DstMAC), unsafe.Sizeof(p.DstMAC)},
		{"Flags", unsafe.Offsetof(p.Flags), unsafe.Sizeof(p.Flags)},
		{"Flow", unsafe.Offsetof(p.Flow), unsafe.Sizeof(p.Flow)},
		{"Seq", unsafe.Offsetof(p.Seq), unsafe.Sizeof(p.Seq)},
		{"Ack", unsafe.Offsetof(p.Ack), unsafe.Sizeof(p.Ack)},
		{"FlowcellID", unsafe.Offsetof(p.FlowcellID), unsafe.Sizeof(p.FlowcellID)},
		{"Payload", unsafe.Offsetof(p.Payload), unsafe.Sizeof(p.Payload)},
		{"Hops", unsafe.Offsetof(p.Hops), unsafe.Sizeof(p.Hops)},
	}
	for _, f := range hot {
		if f.off+f.size > 64 {
			t.Errorf("Packet.%s ends at byte %d, outside the first cache line", f.name, f.off+f.size)
		}
	}
	if n := unsafe.Sizeof(p); n != 128 {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d, want 128", n)
	}
}

func TestHostMACRoundTrip(t *testing.T) {
	for _, h := range []HostID{0, 1, 15, 255, 70000} {
		m := HostMAC(h)
		if m.IsShadow() {
			t.Errorf("HostMAC(%d) claims to be shadow", h)
		}
		if m.Host() != h {
			t.Errorf("HostMAC(%d).Host() = %d", h, m.Host())
		}
	}
}

func TestShadowMACRoundTrip(t *testing.T) {
	for _, h := range []HostID{0, 3, 1000} {
		for _, tree := range []int{0, 1, 7, 255} {
			m := ShadowMAC(h, tree)
			if !m.IsShadow() {
				t.Errorf("ShadowMAC(%d,%d) not shadow", h, tree)
			}
			if m.Host() != h || m.ShadowTree() != tree {
				t.Errorf("ShadowMAC(%d,%d) decoded as host=%d tree=%d", h, tree, m.Host(), m.ShadowTree())
			}
		}
	}
}

func TestShadowAndRealMACsDistinct(t *testing.T) {
	if HostMAC(5) == ShadowMAC(5, 0) {
		t.Fatal("host MAC and shadow MAC collide")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	f := FlowKey{Src: Addr{1, 100}, Dst: Addr{2, 200}}
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src {
		t.Fatal("Reverse wrong")
	}
	if r.Reverse() != f {
		t.Fatal("double Reverse not identity")
	}
}

func TestFlowKeyHashSpread(t *testing.T) {
	seen := map[uint32]bool{}
	collisions := 0
	for h := HostID(0); h < 64; h++ {
		for p := uint16(0); p < 64; p++ {
			k := FlowKey{Src: Addr{h, 1000 + p}, Dst: Addr{h + 1, 80}}.Hash()
			if seen[k] {
				collisions++
			}
			seen[k] = true
		}
	}
	if collisions > 4 {
		t.Fatalf("%d hash collisions over 4096 flows", collisions)
	}
}

func TestSeqArithmeticWraparound(t *testing.T) {
	const top = ^uint32(0)
	if !SeqLT(top-5, 3) {
		t.Error("wraparound: top-5 should be < 3")
	}
	if !SeqGT(3, top-5) {
		t.Error("wraparound: 3 should be > top-5")
	}
	if SeqMax(top-5, 3) != 3 {
		t.Error("SeqMax across wrap wrong")
	}
	if SeqDiff(3, top-5) != 9 {
		t.Errorf("SeqDiff(3, top-5) = %d, want 9", SeqDiff(3, top-5))
	}
	if !SeqLEQ(7, 7) || !SeqGEQ(7, 7) {
		t.Error("equality cases wrong")
	}
}

// Property: SeqLT is a strict order on any window smaller than 2^31.
func TestSeqOrderProperty(t *testing.T) {
	prop := func(base uint32, a, b uint16) bool {
		x, y := base+uint32(a), base+uint32(b)
		if a == b {
			return !SeqLT(x, y) && !SeqGT(x, y) && SeqLEQ(x, y)
		}
		if a < b {
			return SeqLT(x, y) && !SeqLT(y, x) && SeqMax(x, y) == y
		}
		return SeqGT(x, y) && SeqMax(x, y) == x
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketWireSize(t *testing.T) {
	p := &Packet{Payload: MSS}
	if p.WireSize() != EthOverhead+HeaderLen+MSS {
		t.Fatalf("WireSize = %d", p.WireSize())
	}
	if MSS <= 1400 || MSS >= MTU {
		t.Fatalf("MSS = %d looks wrong", MSS)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Seq: 5, Sack: []SackBlock{{1, 2}}}
	q := p.Clone()
	q.Sack[0].Start = 99
	if p.Sack[0].Start != 1 {
		t.Fatal("Clone shares SACK storage")
	}
}

func TestSegmentLen(t *testing.T) {
	s := &Segment{StartSeq: ^uint32(0) - 9, EndSeq: 10}
	if s.Len() != 20 {
		t.Fatalf("wraparound segment Len = %d, want 20", s.Len())
	}
}

func TestFlagsString(t *testing.T) {
	if (FlagSYN | FlagACK).String() != "SA" {
		t.Fatalf("flags string: %q", (FlagSYN | FlagACK).String())
	}
	if Flags(0).String() != "." {
		t.Fatalf("zero flags string: %q", Flags(0).String())
	}
}
