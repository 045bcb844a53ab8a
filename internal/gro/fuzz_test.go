package gro

import (
	"sort"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

// FuzzPrestoGRO feeds randomized arrival orders, poll-batch splits,
// and inter-batch gaps into Presto GRO and checks its two safety
// properties: the reassembled byte stream is identical to what
// in-order delivery produces (every byte exactly once, no gaps, no
// overlaps), and no segment is left held once all timers drain.
//
// It is also the differential test of the O(active) flush: everything
// is fed to the optimised handler and to the walk-every-flow reference
// (reference_test.go) alike, and the two must emit the identical
// sequence of (flow, StartSeq, EndSeq, Packets, FlushReason, at) and
// identical Stats. The single-flow window cannot reach the flow
// bookkeeping that changed, so the rest of the input drives a second
// stage over several flows: packets (in-order, reordered, retransmitted
// under a later flowcell), polls, idle stretches in which hold timers
// fire, and late retransmissions — an old sequence of a flow, stamped
// with its own or a later flowcell, arriving after an idle stretch in
// which everything the flow held was delivered, as a retransmission in
// flight when its connection closes does.
//
// The fuzz input is a raw byte string consumed as a stream of
// decisions: packet count, flowcell width, a Fisher-Yates shuffle,
// alternating batch sizes and inter-batch delays, then the second
// stage's operations. Everything is derived from the input bytes, so
// each case replays deterministically.
func FuzzPrestoGRO(f *testing.F) {
	// The Figure 2 interleaving, a straight in-order run, and a
	// single-packet-batch tail-of-window case.
	f.Add([]byte{9, 5, 0, 1, 2, 5, 6, 3, 4, 7, 8, 9, 0})
	f.Add([]byte{16, 4})
	f.Add([]byte{24, 3, 0xff, 0x80, 0x40, 7, 1, 90, 1, 90, 1, 90})
	// Second-stage cases, each after a minimal window (2 packets,
	// 1-packet flowcells, one batch): two flows polled in swapped order;
	// a flow holding a segment behind a boundary gap, then 10 ms later a
	// retransmission of its first byte stamped three flowcells on, after
	// which the flow carries on; a late retransmission of one flow in its
	// own flowcell while another flow still holds a segment.
	stage2 := func(ops ...byte) []byte { return append([]byte{0, 0, 0, 1, 0}, ops...) }
	f.Add(stage2(0, 0, 0, 0, 1, 0, 5, 10, 0, 1, 1, 0, 0, 1, 5, 10))
	f.Add(stage2(0, 0, 0, 0, 0, 1, 0, 0, 3, 5, 1, 6, 0, 0, 3, 100, 0, 0, 4, 5, 1))
	f.Add(stage2(0, 0, 0, 0, 1, 0, 0, 1, 2, 5, 1, 6, 0, 0, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		n := int(next())%48 + 2   // packets in the window
		cell := int(next())%8 + 1 // full-MSS packets per flowcell

		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}

		cfg := PrestoConfig{InitialEWMA: 200 * sim.Microsecond}
		rs := newRigs(cfg)

		// Split the arrival order into poll batches at fuzz-chosen
		// boundaries and feed each at a fuzz-chosen simulated time, so
		// boundary gaps can resolve within a poll, across polls, or time
		// out as loss.
		at := sim.Time(0)
		for idx := 0; idx < n; {
			end := idx + int(next())%8 + 1
			if end > n {
				end = n
			}
			batch := order[idx:end]
			idx = end
			at += sim.Time(int(next())%100) * sim.Microsecond
			rs.at(at, func(r *rig) {
				for _, i := range batch {
					r.h.Receive(pkt(i, uint32(1+i/cell)))
				}
				r.h.Flush()
			})
		}
		rs.run(t) // drain every hold timer; same deliveries as the reference walk

		if held := rs[0].h.HeldSegments(); held != 0 {
			t.Fatalf("held-segment leak: %d segments still buffered after all timers drained", held)
		}
		var out sink
		for _, d := range rs[0].log {
			out.segs = append(out.segs, &packet.Segment{StartSeq: d.start, EndSeq: d.end})
		}

		// Reference: the same window fed strictly in order.
		refEng := sim.NewEngine()
		refOut := &sink{}
		ref := NewPresto(refEng, refOut, cfg)
		for i := 0; i < n; i++ {
			ref.Receive(pkt(i, uint32(1+i/cell)))
		}
		ref.Flush()
		refEng.RunAll()

		if got, want := coverage(t, out.dataSegs()), coverage(t, refOut.dataSegs()); got != want {
			t.Fatalf("reassembled stream %+v does not match in-order delivery %+v", got, want)
		}

		// Second stage: several flows and late retransmissions, on fresh
		// handlers. One operation per byte (plus its operands) until the
		// input runs out.
		const flows, span = 4, 32
		rs = newRigs(cfg)
		at = 0
		var batch []*packet.Packet
		var sent [flows]int // per flow, one past the highest packet index fed
		for ops := 0; pos < len(data) && ops < 512; ops++ {
			switch op := next() % 7; op {
			default: // a data packet joins the current poll's batch
				flow, i := int(next())%flows, int(next())%span
				fc := uint32(1 + i/cell)
				if op == 4 {
					fc += uint32(next())%3 + 1 // a retransmission, stamped with a later flowcell
				}
				sent[flow] = max(sent[flow], i+1)
				batch = append(batch, flowPkt(flow, i, fc))
			case 5: // poll, after an idle stretch of up to 2.5 ms
				at += sim.Time(next()) * 10 * sim.Microsecond
				rs.poll(at, batch...)
				batch = nil
			case 6: // the current poll, an idle stretch of up to 25.5 ms, then a late retransmission
				flow := int(next()) % flows
				i := int(next()) % max(sent[flow], 1)
				fc := uint32(1+i/cell) + uint32(next())%4 // its own flowcell or a later one
				at += sim.Microsecond
				rs.poll(at, batch...)
				batch = nil
				at += sim.Time(next()) * 100 * sim.Microsecond
				p := flowPkt(flow, i, fc)
				p.Retrans = true
				rs.poll(at, p)
			}
		}
		rs.poll(at+sim.Microsecond, batch...)
		rs.run(t)
		if held := rs[0].h.HeldSegments(); held != 0 {
			t.Fatalf("held-segment leak: %d segments still buffered after all timers drained", held)
		}
	})
}

// extent is the byte range a delivered segment stream reassembles to.
type extent struct {
	start, end uint32
	bytes      int
}

// coverage sorts the delivered data segments by sequence and asserts
// they tile a contiguous byte range exactly once — no gap, no overlap,
// no duplicate delivery — returning that range.
func coverage(t *testing.T, segs []*packet.Segment) extent {
	t.Helper()
	if len(segs) == 0 {
		return extent{}
	}
	sorted := append([]*packet.Segment(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool {
		return packet.SeqLT(sorted[i].StartSeq, sorted[j].StartSeq)
	})
	ext := extent{start: sorted[0].StartSeq}
	nextSeq := sorted[0].StartSeq
	for _, s := range sorted {
		if s.StartSeq != nextSeq {
			t.Fatalf("stream not contiguous: segment [%d,%d) after byte %d", s.StartSeq, s.EndSeq, nextSeq)
		}
		nextSeq = s.EndSeq
		ext.bytes += s.Len()
	}
	ext.end = nextSeq
	return ext
}
