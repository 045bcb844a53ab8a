package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"presto/internal/packet"
	"presto/internal/sim"
)

// pcapRecord is one captured packet.
type pcapRecord struct {
	At     sim.Time
	Packet *packet.Packet
}

// errBadMagic marks a stream that is not classic little-endian pcap.
var errBadMagic = errors.New("not a classic pcap stream")

// pcapReader is the test oracle for pcapWriter: it parses a classic
// little-endian microsecond pcap of Ethernet frames and decodes every
// frame through packet.Unmarshal.
type pcapReader struct {
	r      io.Reader
	header bool
}

// ReadPacket returns the next record, or io.EOF.
func (pr *pcapReader) ReadPacket() (pcapRecord, error) {
	if !pr.header {
		var h [24]byte
		if _, err := io.ReadFull(pr.r, h[:]); err != nil {
			return pcapRecord{}, err
		}
		if binary.LittleEndian.Uint32(h[0:4]) != pcapMagic {
			return pcapRecord{}, errBadMagic
		}
		pr.header = true
	}
	var rec [16]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		return pcapRecord{}, err
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	usec := binary.LittleEndian.Uint32(rec[4:8])
	capLen := binary.LittleEndian.Uint32(rec[8:12])
	if capLen > pcapSnapLen {
		return pcapRecord{}, fmt.Errorf("capture length %d exceeds snaplen", capLen)
	}
	frame := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, frame); err != nil {
		return pcapRecord{}, err
	}
	p, err := packet.Unmarshal(frame)
	if err != nil {
		return pcapRecord{}, fmt.Errorf("frame decode: %w", err)
	}
	at := sim.Time(int64(sec))*sim.Second + sim.Time(int64(usec))*sim.Microsecond
	return pcapRecord{At: at, Packet: p}, nil
}

// readAllPcap drains a pcap stream.
func readAllPcap(r io.Reader) ([]pcapRecord, error) {
	pr := &pcapReader{r: r}
	var out []pcapRecord
	for {
		rec, err := pr.ReadPacket()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func samplePkt(i int, fc uint32) *packet.Packet {
	return &packet.Packet{
		SrcMAC:     packet.HostMAC(1),
		DstMAC:     packet.HostMAC(2),
		Flow:       packet.FlowKey{Src: packet.Addr{Host: 1, Port: 40000}, Dst: packet.Addr{Host: 2, Port: 5001}},
		Seq:        uint32(1 + i*packet.MSS),
		Payload:    packet.MSS,
		Flags:      packet.FlagACK,
		FlowcellID: fc,
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newPcapWriter(&buf)
	times := []sim.Time{0, 100 * sim.Microsecond, 3 * sim.Second}
	for i, at := range times {
		if err := w.WritePacket(at, samplePkt(i, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("wrote %d", w.Count())
	}
	recs, err := readAllPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	for i, r := range recs {
		if r.At/sim.Microsecond != times[i]/sim.Microsecond {
			t.Errorf("record %d at %v, want %v", i, r.At, times[i])
		}
		if r.Packet.Seq != uint32(1+i*packet.MSS) || r.Packet.FlowcellID != uint32(i) {
			t.Errorf("record %d mangled: %+v", i, r.Packet)
		}
	}
}

func TestPcapHeaderMagic(t *testing.T) {
	var buf bytes.Buffer
	w := newPcapWriter(&buf)
	if err := w.WritePacket(0, samplePkt(0, 0)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 24 || b[0] != 0xd4 || b[1] != 0xc3 || b[2] != 0xb2 || b[3] != 0xa1 {
		t.Fatalf("bad pcap magic: % x", b[:4])
	}
}

func TestPcapReaderRejectsGarbage(t *testing.T) {
	if _, err := (&pcapReader{r: bytes.NewReader(make([]byte, 64))}).ReadPacket(); !errors.Is(err, errBadMagic) {
		t.Fatalf("err = %v, want errBadMagic", err)
	}
	if _, err := (&pcapReader{r: bytes.NewReader(nil)}).ReadPacket(); err != io.EOF {
		t.Fatalf("empty stream err = %v, want EOF", err)
	}
}

// Property: pcap round trip preserves every wire field for arbitrary
// packets.
func TestPcapRoundTripProperty(t *testing.T) {
	prop := func(seq, ack, fc uint32, payload uint16, sport, dport uint16) bool {
		p := &packet.Packet{
			SrcMAC:     packet.HostMAC(3),
			DstMAC:     packet.ShadowMAC(9, 4),
			Flow:       packet.FlowKey{Src: packet.Addr{Host: 3, Port: sport}, Dst: packet.Addr{Host: 9, Port: dport}},
			Seq:        seq,
			Ack:        ack,
			Flags:      packet.FlagACK,
			Payload:    int(payload) % (packet.MSS + 1),
			FlowcellID: fc,
		}
		var buf bytes.Buffer
		w := newPcapWriter(&buf)
		if err := w.WritePacket(42*sim.Microsecond, p); err != nil {
			return false
		}
		recs, err := readAllPcap(&buf)
		if err != nil || len(recs) != 1 {
			return false
		}
		q := recs[0].Packet
		return q.Flow == p.Flow && q.Seq == p.Seq && q.Ack == p.Ack &&
			q.Payload == p.Payload && q.FlowcellID == p.FlowcellID &&
			q.SrcMAC == p.SrcMAC && q.DstMAC == p.DstMAC
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
