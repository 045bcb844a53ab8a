package main

import (
	"encoding/binary"
	"io"

	"presto/internal/packet"
	"presto/internal/sim"
)

// Classic pcap constants (microsecond resolution, LINKTYPE_ETHERNET).
const (
	pcapMagic   = 0xa1b2c3d4
	pcapVMajor  = 2
	pcapVMinor  = 4
	pcapEther   = 1
	pcapSnapLen = 65535
)

// pcapWriter emits a classic little-endian pcap stream of Ethernet
// frames, so captures open in tcpdump/Wireshark. Frames are the
// canonical wire codec's (packet.Marshal), flowcell ID in its TCP
// option.
type pcapWriter struct {
	w      io.Writer
	header bool
	n      int
}

// newPcapWriter wraps w; the file header is emitted lazily on the
// first packet.
func newPcapWriter(w io.Writer) *pcapWriter { return &pcapWriter{w: w} }

// WritePacket appends one packet with the given simulated timestamp.
func (pw *pcapWriter) WritePacket(at sim.Time, p *packet.Packet) error {
	if !pw.header {
		var h [24]byte
		binary.LittleEndian.PutUint32(h[0:4], pcapMagic)
		binary.LittleEndian.PutUint16(h[4:6], pcapVMajor)
		binary.LittleEndian.PutUint16(h[6:8], pcapVMinor)
		binary.LittleEndian.PutUint32(h[16:20], pcapSnapLen)
		binary.LittleEndian.PutUint32(h[20:24], pcapEther)
		if _, err := pw.w.Write(h[:]); err != nil {
			return err
		}
		pw.header = true
	}
	frame := packet.Marshal(p)
	var rec [16]byte
	us := int64(at) / int64(sim.Microsecond)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(us/1e6))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(us%1e6))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	if err == nil {
		pw.n++
	}
	return err
}

// Count returns packets written.
func (pw *pcapWriter) Count() int { return pw.n }
