package main

import (
	"sort"
	"time"
)

// The benchmark runs on a few cores of a shared host, and the host's
// speed moves: for seconds to minutes at a time the same code takes
// 1.2-1.6 times as long (a busy neighbour on the sibling hardware
// thread or a lower clock would do it; the guest cannot tell), and
// neither process CPU time nor the steal counter shows it. Repeating and taking medians does not remove a
// drift that outlasts the run, so the harness measures the drift and
// divides it out.
//
// calibrator is the yardstick: a miniature discrete-event loop owned by
// the benchmark — a binary heap of timed events that name a handler
// and a packet, a flow map, packets recycled through a free list — that
// does a fixed amount of work per chunk, allocates nothing, and imports
// nothing from the simulator, so no later change to the repository can
// move it. Of the kernels tried (an array heap, pointer chases through
// 512 KB and 8 MB, a block copy, an event loop with and without
// garbage) the event loop is the one whose slowdown tracks the
// simulator's closest to one for one.
//
// Chunks are interleaved with the phases being timed; a phase's host
// time is divided by slowdown(chunks around it). What is reported is
// therefore host seconds at the reference speed calibNominal, and equals
// the clock's reading whenever the machine runs at that speed. What
// that buys depends on the host's mood. While it drifts — 30-40
// repetitions per workload on the reference container — the spread
// of wall_s between repetitions (quartile distance over median) went
// from 10.0 to 4.1 % on elephants-ecmp and from 12.2 to 2.9 % on
// elephants-presto, and the range of medians of five repetitions from
// 19.5 to 5.6 % and from 19.6 to 2.9 %. While it is quiet the loop's
// own wobble costs a point or two: 4.4 to 3.1 % and 3.5 to 5.0 % on
// elephants-ecmp and pod-shards2.
//
// The loop's state holds no pointers — packets live in an arena and are
// named by index, handlers by their place in a table — because while
// the collector marks, every pointer store takes the write barrier's
// slow path: a pointer-linked version of this loop ran three times
// slower whenever a chunk fell into a mark phase, which made the
// yardstick depend on how often the simulator collects.
type calibrator struct {
	events  []calibEvent  // binary min-heap on (at, seq)
	packets []calibPacket // arena; index 0 means none
	used    uint32        // arena slots handed out so far
	free    uint32        // head of the free list through calibPacket.next
	flows   map[uint64]uint32
	seq     uint64
	x       uint64 // xorshift state
}

type calibEvent struct {
	at, seq uint64
	handler uint32 // index into calibHandlers
	p       uint32
}

type calibPacket struct {
	seq, ack uint64
	hops     [6]uint32
	next     uint32
	payload  [8]uint64
}

// calibHandlers is what an event's handler index selects; the loop
// calls through it as the simulator calls its event closures.
var calibHandlers = [2]func(*calibrator, uint32){(*calibrator).deliver, (*calibrator).deliver}

// calibChunkEvents is the fixed work of one chunk, about 2 ms. It is a
// variable only so that the smoke tests can shrink it.
var calibChunkEvents = 15_000

const (
	// calibNominal is what one chunk takes on the 2-core reference
	// container (go1.24.0 linux/amd64) in its fast state, when it runs
	// where the harness runs it, right after a stretch of simulation has
	// displaced its state from the caches (back to back a chunk takes
	// 1.9 ms there). A window's slowdown on that container is then
	// about 1: medians 0.90-1.03 over the four workloads.
	calibNominal = 2300 * time.Microsecond

	calibPending = 2048 // events in flight
	calibFlows   = 4096 // distinct flow keys
)

// newCalibrator builds the loop with every flow key present, so that
// from the first event on each delivery retires one packet and reuses
// one, and chunks allocate nothing.
func newCalibrator() *calibrator {
	c := &calibrator{
		events: make([]calibEvent, 0, calibPending+1),
		// One packet per pending event and per flow, and one in hand.
		packets: make([]calibPacket, calibPending+calibFlows+2),
		flows:   make(map[uint64]uint32, calibFlows),
		x:       88172645463325252,
	}
	for key := uint64(0); key < calibFlows; key++ {
		c.used++
		c.flows[key] = c.used
	}
	for i := 0; i < calibPending; i++ {
		c.used++
		c.packets[c.used].seq = uint64(i)
		c.push(calibEvent{at: uint64(i), p: c.used})
	}
	c.run(calibPending) // past the first events, whose packets are never reused
	return c
}

func (c *calibrator) rand() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

func (e *calibEvent) before(o *calibEvent) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

func (c *calibrator) push(e calibEvent) {
	c.seq++
	e.seq = c.seq
	h := append(c.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].before(&e) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	c.events = h
}

func (c *calibrator) pop() calibEvent {
	h := c.events
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(&h[child]) {
			child = r
		}
		if last.before(&h[child]) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if len(h) > 0 {
		h[i] = last
	}
	c.events = h
	return top
}

// deliver is the loop's event handler: take a packet off the free
// list, stamp it, make it its flow's latest (retiring the previous one
// to the free list) and schedule its successor.
func (c *calibrator) deliver(p uint32) {
	r := c.rand()
	q := c.free
	if q != 0 {
		c.free = c.packets[q].next
	} else {
		c.used++
		q = c.used
	}
	pkt := &c.packets[q]
	*pkt = calibPacket{seq: c.packets[p].seq + 1, ack: c.packets[p].ack}
	pkt.hops[r%6] = uint32(r)
	key := r % calibFlows
	if old := c.flows[key]; old != 0 {
		pkt.ack = c.packets[old].seq
		c.packets[old].next = c.free
		c.free = old
	}
	c.flows[key] = q
	c.push(calibEvent{at: c.events[0].at + r%5000, handler: uint32(r>>32) & 1, p: q})
}

func (c *calibrator) run(events int) {
	for i := 0; i < events; i++ {
		e := c.pop()
		calibHandlers[e.handler](c, e.p)
	}
}

// chunk runs the fixed work once and returns how long it took.
func (c *calibrator) chunk() time.Duration {
	t := time.Now()
	c.run(calibChunkEvents)
	return time.Since(t)
}

// slowdown is how much slower than the reference speed the machine ran
// while chunks were timed: the mean of the middle three fifths of them
// over calibNominal. Chunks cover a twentieth of the time, so a stall
// that lands in one would count twenty-fold in a plain mean, and the
// median wastes samples; this trim gave the steadiest result on all
// four workloads.
func slowdown(chunks []time.Duration) float64 {
	s := append([]time.Duration(nil), chunks...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	s = s[len(s)/5 : len(s)-len(s)/5]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / float64(calibNominal)
}
