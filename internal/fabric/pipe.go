// Package fabric simulates the dynamic data plane of a topology:
// directed link queues with serialization and propagation delay,
// output-queued switches that forward on shadow-MAC labels or ECMP
// hash groups, link failures, and hardware-style fast failover
// (label-rewrite to a backup spanning tree, §3.3).
package fabric

import (
	"fmt"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// Pipe is one direction of a link: an output queue draining at the
// link rate, followed by propagation delay. Packets that would
// overflow the queue are dropped (tail drop), as in the paper's
// shallow-buffered 10 GbE switches.
//
// The forward path builds no closure: the packet being serialised sits
// in tx, the queue is a ring, and the two per-packet events —
// serialisation done, arrival at the far end — are callbacks bound once
// at construction (the arrival carries its packet as the event's
// argument). Arrivals of one pipe fire in transmit order: they share
// one propagation delay and the engine breaks ties FIFO.
type Pipe struct {
	eng  *sim.Engine // engine of the transmitting end's shard
	net  *Network
	link topo.Link
	from topo.NodeID // transmitting end
	dst  topo.NodeID // receiving end
	// dstShard is the receiving end's shard: the arrival rides
	// ShardGroup.SendArg, a plain schedule when both ends share an
	// engine and the group's handoff path when they do not.
	dstShard int
	ctr      *shardCounters // aggregate bucket of the transmitting shard

	capBytes   int
	queuedWire int            // wire bytes currently queued (excluding in-service)
	queue      packet.Ring    // waiting packets
	tx         *packet.Packet // the packet being serialised; nil when the link is idle
	// down is the link's state, set and cleared by the same FailLink and
	// RestoreLink calls as Network.linkDownSince: the label fast path
	// reads it from the pipe it enqueues on instead of LinkUp.
	down     bool
	txDoneFn func()
	arriveFn func(any)

	// Counters (switch-counter analogues; loss rate in the paper is
	// measured from these).
	TxPackets  uint64
	TxBytes    uint64
	Drops      uint64 // tail drops
	DropsDown  uint64 // black-holed while the link was down
	EnqPackets uint64
	// MaxQueuedBytes is the queue-depth watermark (wire bytes).
	MaxQueuedBytes int
}

// name labels the pipe in telemetry snapshots.
func (p *Pipe) name() string {
	return fmt.Sprintf("link%d:%d->%d", p.link.ID, p.from, p.dst)
}

// Enqueue places pkt on the output queue, dropping it if the link is
// down or the queue is full.
//
//prestolint:noalloc
func (p *Pipe) Enqueue(pkt *packet.Packet) {
	p.EnqPackets++
	if p.down {
		p.DropsDown++
		p.ctr.tracer.QueueDrop(p.eng.Now(), int32(p.link.ID), p.queuedWire, "link-down")
		p.ctr.pool.Put(pkt)
		return
	}
	w := pkt.WireSize()
	if p.queuedWire+w > p.capBytes {
		p.Drops++
		p.ctr.tracer.QueueDrop(p.eng.Now(), int32(p.link.ID), p.queuedWire, "tail-drop")
		p.ctr.pool.Put(pkt)
		return
	}
	if t := p.net.cfg.ECNThresholdBytes; t > 0 && p.queuedWire > t &&
		p.net.Topo.Nodes[p.from].Kind != topo.KindHost {
		pkt.CE = true
	}
	p.queuedWire += w
	if p.queuedWire > p.MaxQueuedBytes {
		p.MaxQueuedBytes = p.queuedWire
	}
	p.queue.Push(pkt)
	if p.tx == nil {
		p.transmitNext()
	}
}

// transmitNext starts serialising the head of the queue on an idle
// link.
//
//prestolint:noalloc
func (p *Pipe) transmitNext() {
	if p.queue.Len() == 0 || p.down {
		return
	}
	p.tx = p.queue.Pop()
	w := p.tx.WireSize()
	p.queuedWire -= w
	ser := sim.Time(int64(w) * 8 * int64(sim.Second) / p.link.BitsPerSec)
	p.eng.Schedule(ser, p.txDoneFn)
}

// txDone fires when tx has left the wire: count it, start its
// propagation, and only then start the next serialisation — the order
// the two schedule calls have always been made in, which the engine's
// FIFO tie-break turns into event order.
//
//prestolint:noalloc
func (p *Pipe) txDone() {
	pkt := p.tx
	p.tx = nil
	p.TxPackets++
	p.TxBytes += uint64(pkt.WireSize())
	if !p.down {
		// Propagation: the packet arrives at the far end later; the
		// queue meanwhile keeps draining. (Cross-shard propagation >=
		// lookahead is checked at construction, so the send is always
		// window-legal.)
		p.net.group.SendArg(p.eng, p.dstShard, p.link.Propagation, p.arriveFn, pkt)
	} else {
		p.DropsDown++
		p.ctr.pool.Put(pkt)
	}
	p.transmitNext()
}

// arrive hands a packet that finished propagating to the receiving
// node. It runs on the receiving end's engine.
//
//prestolint:noalloc
func (p *Pipe) arrive(pkt any) { p.net.deliver(p.dst, pkt.(*packet.Packet)) }

// fail marks the pipe down and discards its queue — but neither the
// packet in service (txDone counts it black-holed) nor packets already
// propagating (they still arrive).
func (p *Pipe) fail() {
	p.down = true
	n := uint64(p.queue.Len())
	p.DropsDown += n
	for p.queue.Len() > 0 {
		p.ctr.pool.Put(p.queue.Pop())
	}
	p.queuedWire = 0
}

// restore brings the pipe back up.
func (p *Pipe) restore() {
	p.down = false
	if p.tx == nil {
		p.transmitNext()
	}
}
