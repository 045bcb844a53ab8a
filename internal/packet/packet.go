// Package packet defines the data-plane objects the simulator moves
// around: MTU-sized packets, TSO/GRO segments, flow keys, MAC addresses
// and shadow-MAC labels, and wraparound-safe TCP sequence arithmetic.
//
// The design follows the paper's own encoding choices: the destination
// MAC carries the shadow-MAC forwarding label, the flowcell ID rides in
// a TCP option (the paper's implementation choice, §3.1 footnote 1),
// and TSO replicates both onto every derived MTU packet.
package packet

import (
	"fmt"

	"presto/internal/sim"
)

// MTU and header sizes (bytes), matching the paper's 1500-byte-MTU
// 10 GbE testbed.
const (
	MTU            = 1500                      // IP MTU
	EthHeaderLen   = 14                        // Ethernet II header
	EthOverhead    = EthHeaderLen + 4 + 8 + 12 // header + FCS + preamble + IFG, for wire-time accounting
	IPHeaderLen    = 20                        // IPv4 without options
	TCPHeaderLen   = 20                        // TCP without options
	FlowcellOptLen = 8                         // kind(1) + len(1) + pad(2) + flowcell ID(4)
	HeaderLen      = IPHeaderLen + TCPHeaderLen + FlowcellOptLen
	MSS            = MTU - HeaderLen // max TCP payload per packet
	MaxSegSize     = 64 * 1024       // max TSO/GRO segment payload (the flowcell size)
)

// HostID identifies a host (server) in the topology.
type HostID int32

// Addr is a transport endpoint.
type Addr struct {
	Host HostID
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("h%d:%d", a.Host, a.Port) }

// FlowKey identifies a unidirectional TCP flow. It is comparable and
// used as a map key throughout the receive path (the GRO hash table is
// keyed on it, as in the kernel).
type FlowKey struct {
	Src, Dst Addr
}

// Reverse returns the flow key of the opposite direction.
func (f FlowKey) Reverse() FlowKey { return FlowKey{Src: f.Dst, Dst: f.Src} }

func (f FlowKey) String() string { return fmt.Sprintf("%v->%v", f.Src, f.Dst) }

// Hash returns a fast non-cryptographic hash of the flow key, used by
// ECMP-style hashing. FNV-1a over the tuple bytes.
func (f FlowKey) Hash() uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint32(f.Src.Host))
	mix(uint32(f.Dst.Host))
	mix(uint32(f.Src.Port)<<16 | uint32(f.Dst.Port))
	return h
}

// The edge's per-flow tables — the sender datapath's and Presto GRO's —
// hold soft state, aged by one rule the way OVS ages datapath flows: an
// entry idle longer than FlowIdle is dropped at the next sweep, and a
// table is swept only when it holds FlowSweepMin entries and has doubled
// since its last sweep.
const (
	FlowSweepMin = 4096
	FlowIdle     = 10 * sim.Second
)

// SweepIdle applies that rule to table before it admits a new flow.
// sweepAt is the table's own back-off mark; lastActive reports when an
// entry was last used, and false for an entry that must stay whatever
// its age.
func SweepIdle[V any](table map[FlowKey]V, sweepAt *int, now sim.Time, lastActive func(V) (sim.Time, bool)) {
	if len(table) < max(*sweepAt, FlowSweepMin) {
		return
	}
	for k, v := range table {
		if at, ok := lastActive(v); ok && now-at > FlowIdle {
			delete(table, k)
		}
	}
	// A sweep that freed nothing would otherwise rescan the whole table on
	// every new flow; wait until it has doubled.
	*sweepAt = 2 * len(table)
}

// MAC is a 48-bit Ethernet address. Real host MACs and shadow-MAC
// forwarding labels share this type; IsShadow distinguishes them.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Locally-administered address prefixes: 0x02 for real host MACs,
// 0x0a for per-host shadow-MAC labels, 0x0e for switch-to-switch
// tunnel labels.
const (
	realMACPrefix   = 0x02
	shadowMACPrefix = 0x0a
	tunnelMACPrefix = 0x0e
)

// HostMAC returns the real MAC of host h.
func HostMAC(h HostID) MAC {
	return MAC{realMACPrefix, 0, byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
}

// ShadowMAC returns the shadow-MAC label that routes to host h along
// spanning tree t. One label exists per (vSwitch, tree), exactly as in
// the paper (§3.1).
func ShadowMAC(h HostID, tree int) MAC {
	return MAC{shadowMACPrefix, byte(tree), byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
}

// TunnelMAC returns the switch-to-switch tunnel label that routes to
// destination leaf index leaf along spanning tree t. Tunneling needs
// O(|switches| x |paths|) rules instead of O(|vSwitches| x |paths|)
// (§3.1's scalability extension); the terminal leaf forwards on L3.
func TunnelMAC(leaf int, tree int) MAC {
	return MAC{tunnelMACPrefix, byte(tree), 0, 0, byte(leaf >> 8), byte(leaf)}
}

// IsShadow reports whether m is a per-host shadow-MAC label.
func (m MAC) IsShadow() bool { return m[0] == shadowMACPrefix }

// IsTunnel reports whether m is a switch-to-switch tunnel label.
func (m MAC) IsTunnel() bool { return m[0] == tunnelMACPrefix }

// IsLabel reports whether m is any forwarding label.
func (m MAC) IsLabel() bool { return m.IsShadow() || m.IsTunnel() }

// TunnelLeaf returns the destination leaf index of a tunnel label.
func (m MAC) TunnelLeaf() int { return int(m[4])<<8 | int(m[5]) }

// ShadowTree returns the spanning-tree index encoded in a shadow or
// tunnel MAC.
func (m MAC) ShadowTree() int { return int(m[1]) }

// MACHost extracts the host ID from either a real or shadow MAC.
func (m MAC) Host() HostID {
	return HostID(uint32(m[2])<<24 | uint32(m[3])<<16 | uint32(m[4])<<8 | uint32(m[5]))
}

// Flags are TCP flags.
type Flags uint8

const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

func (f Flags) Has(x Flags) bool { return f&x == x }

func (f Flags) String() string {
	s := ""
	if f.Has(FlagSYN) {
		s += "S"
	}
	if f.Has(FlagACK) {
		s += "A"
	}
	if f.Has(FlagFIN) {
		s += "F"
	}
	if f.Has(FlagRST) {
		s += "R"
	}
	if f.Has(FlagPSH) {
		s += "P"
	}
	if s == "" {
		s = "."
	}
	return s
}

// SackBlock is one SACK range [Start, End) in sequence space.
type SackBlock struct {
	Start, End uint32
}

// Packet is one MTU-sized (or smaller) packet on the wire. Packets are
// passed by pointer and owned by the receiver after handoff: a *Packet
// is valid until the handler it was passed to returns, after which the
// fabric may have recycled it through a Pool. Keep a Clone, not the
// pointer.
type Packet struct {
	// L2: DstMAC carries the shadow-MAC label while in the fabric; the
	// destination vSwitch rewrites it back to the real MAC.
	SrcMAC, DstMAC MAC

	// L3/L4.
	Flow    FlowKey
	Seq     uint32 // first payload byte, or probe/control seq
	Ack     uint32 // cumulative ACK (valid if FlagACK)
	Flags   Flags
	Sack    []SackBlock
	Payload int // TCP payload bytes in this packet

	// FlowcellID is the sequentially increasing flowcell number assigned
	// by the sending vSwitch (TCP option in the paper's implementation).
	FlowcellID uint32

	// CE is the ECN Congestion Experienced mark, set by switches whose
	// queue exceeds the marking threshold (DCTCP support).
	CE bool
	// EchoCE/EchoTotal ride on ACKs: the receiver's cumulative CE and
	// total data-packet counts (the simulator's condensed form of
	// DCTCP's per-ACK ECE echo state machine).
	EchoCE, EchoTotal uint64

	// Bookkeeping (not on the wire).
	SentAt  sim.Time // transmit timestamp for RTT estimation
	Retrans bool     // retransmitted data (pushed up GRO immediately)
	Probe   bool     // single-packet RTT probe (sockperf-like)
	pooled  bool     // on a Pool's free list; only there to catch a second Put
	Hops    int      // number of switch hops taken, for loop detection
}

// WireSize returns the bytes this packet occupies on the wire,
// including all L2 overhead (preamble, FCS, inter-frame gap), which is
// what link serialization time is computed from.
func (p *Packet) WireSize() int {
	return EthOverhead + HeaderLen + p.Payload
}

// EndSeq returns the sequence number just past this packet's payload.
func (p *Packet) EndSeq() uint32 { return p.Seq + uint32(p.Payload) }

func (p *Packet) String() string {
	return fmt.Sprintf("%v %v seq=%d len=%d ack=%d fc=%d", p.Flow, p.Flags, p.Seq, p.Payload, p.Ack, p.FlowcellID)
}

// Clone returns a deep copy (SACK list included) that no pool owns.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	if p.Sack != nil {
		q.Sack = append([]SackBlock(nil), p.Sack...)
	}
	return &q
}

// Segment is a contiguous run of TCP payload for one flow — the unit
// TSO accepts from the stack on send and GRO pushes up on receive. A
// segment never spans a flowcell boundary (the flowcell ID is a TCP
// option, and packets whose options differ do not merge).
type Segment struct {
	// SrcMAC and DstMAC are set by the sending vSwitch (DstMAC carries
	// the shadow-MAC label); TSO replicates them onto every derived
	// packet. Unused on the receive path.
	SrcMAC, DstMAC MAC

	Flow       FlowKey
	StartSeq   uint32 // first byte
	EndSeq     uint32 // one past last byte
	FlowcellID uint32
	Packets    int      // MTU packets merged into this segment
	Retrans    bool     // contains retransmitted data
	CreatedAt  sim.Time // when the segment was created in GRO
	LastMerge  sim.Time // when a packet last merged into it
	Flags      Flags
	Ack        uint32
	Sack       []SackBlock
	SentAt     sim.Time // earliest packet timestamp (RTT)
	Probe      bool

	// CEPackets counts CE-marked packets merged into this segment
	// (receive path), so DCTCP's mark fraction survives GRO.
	CEPackets int
	// EchoCE/EchoTotal ride on ACKs: cumulative CE-marked and total
	// data packets the receiver has seen (the simulator's stand-in for
	// DCTCP's ECE echo state machine).
	EchoCE    uint64
	EchoTotal uint64
}

// Len returns the payload length in bytes (wraparound-safe).
func (s *Segment) Len() int { return int(SeqDiff(s.EndSeq, s.StartSeq)) }

func (s *Segment) String() string {
	return fmt.Sprintf("%v [%d,%d) fc=%d pkts=%d", s.Flow, s.StartSeq, s.EndSeq, s.FlowcellID, s.Packets)
}

// Sequence-number arithmetic, wraparound-safe (RFC 1982-style serial
// number comparison over uint32). The paper notes "we ensure overflow
// is handled properly in all cases" — these helpers are used for both
// TCP sequence numbers and flowcell IDs.

// SeqLT reports a < b in modular sequence space.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in modular sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqGT reports a > b in modular sequence space.
func SeqGT(a, b uint32) bool { return int32(a-b) > 0 }

// SeqGEQ reports a >= b in modular sequence space.
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// SeqMax returns the later of a and b in modular sequence space.
func SeqMax(a, b uint32) uint32 {
	if SeqGT(a, b) {
		return a
	}
	return b
}

// SeqDiff returns a-b as a signed distance (positive if a is after b).
func SeqDiff(a, b uint32) int32 { return int32(a - b) }
