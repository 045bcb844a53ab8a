package tcp

import "presto/internal/packet"

// scoreboard tracks SACKed ranges above the cumulative ACK point on
// the sender side, and doubles as the receiver's out-of-order range
// set. Ranges are kept sorted and coalesced; all arithmetic is
// wraparound-safe.
type scoreboard struct {
	blocks []packet.SackBlock // sorted by Start, non-overlapping
}

// add inserts [start, end) and coalesces neighbours.
func (s *scoreboard) add(start, end uint32) {
	if packet.SeqGEQ(start, end) {
		return
	}
	// Find insertion position.
	i := 0
	for i < len(s.blocks) && packet.SeqLT(s.blocks[i].Start, start) {
		i++
	}
	s.blocks = append(s.blocks, packet.SackBlock{})
	copy(s.blocks[i+1:], s.blocks[i:])
	s.blocks[i] = packet.SackBlock{Start: start, End: end}
	// Coalesce around i.
	j := i
	if j > 0 && packet.SeqGEQ(s.blocks[j-1].End, s.blocks[j].Start) {
		j--
	}
	for j+1 < len(s.blocks) && packet.SeqGEQ(s.blocks[j].End, s.blocks[j+1].Start) {
		if packet.SeqGT(s.blocks[j+1].End, s.blocks[j].End) {
			s.blocks[j].End = s.blocks[j+1].End
		}
		s.blocks = append(s.blocks[:j+1], s.blocks[j+2:]...)
	}
}

// prune drops everything at or below una (cumulatively acked).
func (s *scoreboard) prune(una uint32) {
	out := s.blocks[:0]
	for _, b := range s.blocks {
		if packet.SeqLEQ(b.End, una) {
			continue
		}
		if packet.SeqLT(b.Start, una) {
			b.Start = una
		}
		out = append(out, b)
	}
	s.blocks = out
}

// contains reports whether seq is inside a recorded range.
func (s *scoreboard) contains(seq uint32) bool {
	for _, b := range s.blocks {
		if packet.SeqGEQ(seq, b.Start) && packet.SeqLT(seq, b.End) {
			return true
		}
	}
	return false
}

// firstHole returns the first unrecorded gap at or above una, bounded
// by the highest recorded byte. ok is false when nothing is recorded
// above una (no hole known).
func (s *scoreboard) firstHole(una uint32) (start, end uint32, ok bool) {
	if len(s.blocks) == 0 {
		return 0, 0, false
	}
	start = una
	for _, b := range s.blocks {
		if packet.SeqGT(b.Start, start) {
			return start, b.Start, true
		}
		if packet.SeqGT(b.End, start) {
			start = b.End
		}
	}
	return 0, 0, false
}

// sackedAbove counts recorded bytes at or above seq.
func (s *scoreboard) sackedAbove(seq uint32) int {
	n := 0
	for _, b := range s.blocks {
		if packet.SeqGEQ(b.Start, seq) {
			n += int(packet.SeqDiff(b.End, b.Start))
		} else if packet.SeqGT(b.End, seq) {
			n += int(packet.SeqDiff(b.End, seq))
		}
	}
	return n
}

// clear resets the scoreboard.
func (s *scoreboard) clear() { s.blocks = s.blocks[:0] }

// recent returns up to max blocks, highest (most recently useful)
// first, for advertising in outgoing ACKs.
func (s *scoreboard) recent(max int) []packet.SackBlock {
	if len(s.blocks) == 0 {
		return nil
	}
	n := len(s.blocks)
	if n > max {
		n = max
	}
	out := make([]packet.SackBlock, 0, n)
	for i := len(s.blocks) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, s.blocks[i])
	}
	return out
}
