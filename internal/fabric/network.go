package fabric

import (
	"fmt"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
)

// Handler receives packets delivered to a host's NIC.
type Handler interface {
	HandlePacket(p *packet.Packet)
}

// Config sets the dynamic parameters of the fabric.
type Config struct {
	// SwitchQueueBytes is the per-port output buffer at switches. The
	// testbed's G8264 switches draw on a multi-megabyte shared buffer;
	// the default (topo.DefaultSwitchQueueBytes) matches the
	// multi-millisecond RTT tails the paper measures under congestion
	// (Figures 8, 11).
	SwitchQueueBytes int
	// ECNThresholdBytes makes switch ports mark Congestion Experienced
	// on packets that arrive to a queue deeper than this (DCTCP-style
	// marking). Zero disables marking. Host access pipes never mark.
	ECNThresholdBytes int
}

// failoverLatency is the time between a link failing and the hardware
// fast-failover rule activating ("several to tens of milliseconds",
// §3.3). Until it elapses, traffic to the dead port is black-holed.
const failoverLatency = 5 * sim.Millisecond

// hostQueueBytes is the host NIC's transmit queue (driver ring),
// deeper than a switch port.
const hostQueueBytes = 4 << 20

func (c *Config) fill() {
	if c.SwitchQueueBytes == 0 {
		c.SwitchQueueBytes = topo.DefaultSwitchQueueBytes
	}
}

// linkUp is linkDownSince's value for a link that is up.
const linkUp sim.Time = -1

// shardCounters holds one shard's slice of the aggregate delivery and
// loop-guard drop counts, its packet arena and its trace buffer. Each
// pipe and switch uses the bucket of the shard its node runs on, so
// neither counting, a Put nor a traced event crosses goroutines; the
// Total* accessors sum the buckets (queue and link-down drops are
// counted once, on the pipe that drops). Padding fills the bucket to
// two cache lines, keeping concurrently-written buckets apart.
type shardCounters struct {
	delivered uint64            // packets handed to host NICs
	hopDrops  uint64            // loop-guard drops
	pool      packet.Pool       // where the shard's NICs get packets and every packet dying on it goes
	tracer    *telemetry.Tracer // the shard's trace buffer (nil while tracing is off)
	_         [6]uint64
}

// poolSlack is how far apart, in free packets, the fullest and emptiest
// shard pools may drift before a barrier levels them: large enough that
// a levelling moves a hundred packets or more, small against what is in
// flight (a quarter of one switch port's 2 MB of full frames).
const poolSlack = 256

// Network is the running data plane for a Topology.
type Network struct {
	Topo *topo.Topology
	cfg  Config

	// The shard group every node's engine belongs to (a group of one
	// for a serial fabric), the node→shard assignment, and one counter
	// bucket per shard.
	group    *sim.ShardGroup
	shardOf  []int32
	counters []shardCounters

	// Dense per-hop tables: pipes by 2·LinkID + direction (see
	// linkPipes), switches by NodeID (nil at host nodes), host handlers
	// by HostID, link state by LinkID.
	pipes    []*Pipe
	switches []*Switch
	hosts    []Handler

	linkDownSince []sim.Time // when each link failed; linkUp while it is up
}

// New builds the data plane for t on the single engine eng: NewSharded
// over the group of one that views eng, with every node on shard 0.
// Driving eng directly drives the fabric.
func New(eng *sim.Engine, t *topo.Topology, cfg Config) *Network {
	return NewSharded(sim.GroupOf(eng), make([]int32, len(t.Nodes)), t, cfg)
}

// NewSharded builds the data plane over a shard group — the one
// construction path: every node's events run on the engine of its
// assigned shard, and packets crossing a shard boundary ride
// ShardGroup.Send with the link's propagation delay. shardOf maps every
// NodeID to a shard index. Bit-identity with a one-shard run requires
// every cross-shard link's propagation to be at least the group's
// lookahead; violations panic here rather than reordering events
// mid-run.
func NewSharded(g *sim.ShardGroup, shardOf []int32, t *topo.Topology, cfg Config) *Network {
	if len(shardOf) != len(t.Nodes) {
		panic(fmt.Sprintf("fabric: shard map covers %d nodes, topology has %d", len(shardOf), len(t.Nodes)))
	}
	for id, s := range shardOf {
		if int(s) < 0 || int(s) >= g.Shards() {
			panic(fmt.Sprintf("fabric: node %d assigned to shard %d of %d", id, s, g.Shards()))
		}
	}
	for _, l := range t.Links {
		if shardOf[l.A] != shardOf[l.B] && l.Propagation < g.Lookahead() {
			panic(fmt.Sprintf("fabric: cross-shard link %d propagation %v below lookahead %v",
				l.ID, l.Propagation, g.Lookahead()))
		}
	}
	cfg.fill()
	n := &Network{
		Topo:          t,
		cfg:           cfg,
		group:         g,
		shardOf:       shardOf,
		counters:      make([]shardCounters, g.Shards()),
		pipes:         make([]*Pipe, 0, 2*len(t.Links)),
		switches:      make([]*Switch, len(t.Nodes)),
		hosts:         make([]Handler, t.NumHosts()),
		linkDownSince: make([]sim.Time, len(t.Links)),
	}
	for _, l := range t.Links {
		n.linkDownSince[l.ID] = linkUp
		for _, from := range []topo.NodeID{l.A, l.B} {
			capBytes := n.cfg.SwitchQueueBytes
			if t.Nodes[from].Kind == topo.KindHost {
				capBytes = hostQueueBytes
			}
			dst := l.Other(from)
			p := &Pipe{
				eng: n.EngineFor(from), net: n, link: l, from: from,
				dst: dst, dstShard: int(shardOf[dst]),
				ctr: n.counterOf(from), capBytes: capBytes,
			}
			p.txDoneFn, p.arriveFn = p.txDone, p.arrive
			n.pipes = append(n.pipes, p)
		}
	}
	for _, node := range t.Nodes {
		if node.Kind != topo.KindHost {
			n.switches[node.ID] = newSwitch(n, node)
		}
	}
	if g.Shards() > 1 {
		g.OnBarrier(n.levelPools)
	}
	return n
}

// EngineFor returns the engine that node's events must run on: its
// shard's engine.
func (n *Network) EngineFor(node topo.NodeID) *sim.Engine {
	return n.group.Shard(int(n.shardOf[node]))
}

// counterOf returns the counter bucket of node's shard.
func (n *Network) counterOf(node topo.NodeID) *shardCounters {
	return &n.counters[n.shardOf[node]]
}

// PacketPool returns the packet arena of host h's shard, which h's NIC
// sends from and returns consumed packets to.
func (n *Network) PacketPool(h packet.HostID) *packet.Pool {
	return &n.counterOf(n.Topo.HostNode(h)).pool
}

// PoolTotals sums the shards' arena counters: packets handed out,
// returned, and allocated. Between runs gets - puts is what is in flight.
func (n *Network) PoolTotals() (gets, puts, news uint64) {
	for i := range n.counters {
		p := &n.counters[i].pool
		gets, puts, news = gets+p.Gets, puts+p.Puts, news+p.News
	}
	return gets, puts, news
}

// levelPools is the arena's return path, run at every window barrier
// with all workers idle. A packet dies into the pool of the shard it
// dies on, so a shard that receives more than it sends piles up what
// the sender then allocates afresh: when the fullest and emptiest lists
// are more than poolSlack apart, half the difference moves over. It
// reads list sizes only, so what is allocated repeats with the run.
//
//prestolint:noalloc
func (n *Network) levelPools() {
	lo, hi := &n.counters[0].pool, &n.counters[0].pool
	for i := 1; i < len(n.counters); i++ {
		p := &n.counters[i].pool
		if p.Free() < lo.Free() {
			lo = p
		}
		if p.Free() > hi.Free() {
			hi = p
		}
	}
	if d := hi.Free() - lo.Free(); d > poolSlack {
		hi.MoveTo(lo, d/2)
	}
}

// now returns fabric time for control-plane paths (link failures,
// telemetry snapshots): the group clock, which on a group of one is
// its engine's clock even mid-run.
func (n *Network) now() sim.Time { return n.group.Now() }

// TotalDrops returns queue-overflow drops summed across pipes.
func (n *Network) TotalDrops() uint64 {
	var s uint64
	for _, p := range n.pipes {
		s += p.Drops
	}
	return s
}

// TotalDropsDown returns failure black-hole drops summed across pipes.
func (n *Network) TotalDropsDown() uint64 {
	var s uint64
	for _, p := range n.pipes {
		s += p.DropsDown
	}
	return s
}

// TotalDelivered returns packets handed to host NICs, summed across
// shards.
func (n *Network) TotalDelivered() uint64 {
	var s uint64
	for i := range n.counters {
		s += n.counters[i].delivered
	}
	return s
}

// TotalHopDrops returns loop-guard drops summed across shards.
func (n *Network) TotalHopDrops() uint64 {
	var s uint64
	for i := range n.counters {
		s += n.counters[i].hopDrops
	}
	return s
}

// AttachHost registers the packet handler (NIC) for host h.
func (n *Network) AttachHost(h packet.HostID, handler Handler) {
	n.hosts[h] = handler
}

// SetTracer attaches a structured event tracer to the data plane (nil
// disables tracing, the default). Each shard emits into its own buffer
// of tr (Tracer.NewShard), which every window barrier moves into tr.
func (n *Network) SetTracer(tr *telemetry.Tracer) {
	for i := range n.counters {
		n.counters[i].tracer = tr.NewShard()
	}
	if tr != nil && n.group.Shards() > 1 {
		n.group.OnBarrier(tr.Collect)
	}
}

// Tracer returns the trace buffer of host h's shard, which h's edge
// components (vSwitch, NIC, GRO, transport) emit into; nil while
// tracing is off.
func (n *Network) Tracer(h packet.HostID) *telemetry.Tracer {
	return n.counterOf(n.Topo.HostNode(h)).tracer
}

// Switch returns the switch at node id.
func (n *Network) Switch(id topo.NodeID) *Switch { return n.switches[id] }

// Pipe returns the directed pipe of link id transmitting from node
// from.
func (n *Network) Pipe(id topo.LinkID, from topo.NodeID) *Pipe {
	for _, p := range n.linkPipes(id) {
		if p.from == from {
			return p
		}
	}
	return nil
}

// linkPipes returns both directions of link id.
func (n *Network) linkPipes(id topo.LinkID) []*Pipe { return n.pipes[2*int(id) : 2*int(id)+2] }

// SendFromHost injects a packet from host h onto its access link.
func (n *Network) SendFromHost(h packet.HostID, p *packet.Packet) {
	n.Pipe(n.Topo.HostLink(h), n.Topo.HostNode(h)).Enqueue(p)
}

// deliver hands a packet that finished propagating to its next node.
// In sharded mode it always runs on the engine of node's shard (the
// pipe either scheduled it locally or routed it through the group).
//
//prestolint:noalloc
func (n *Network) deliver(node topo.NodeID, p *packet.Packet) {
	if sw := n.switches[node]; sw != nil {
		sw.forward(p)
		return
	}
	n.counterOf(node).delivered++
	if h := n.hosts[n.Topo.Nodes[node].Host]; h != nil {
		h.HandlePacket(p)
	}
}

// FailLink takes both directions of link id down. Switch fast-failover
// rules activate after the configured latency. On a sharded network
// link state may only change between Run calls: linkDownSince is read
// by every shard without synchronization during windows.
func (n *Network) FailLink(id topo.LinkID) {
	n.checkQuiescent("FailLink")
	if !n.LinkUp(id) {
		return
	}
	n.linkDownSince[id] = n.now()
	n.linkPipes(id)[0].ctr.tracer.LinkDown(n.now(), int32(id))
	for _, p := range n.linkPipes(id) {
		p.fail()
	}
}

// RestoreLink brings link id back up. Like FailLink it is only legal
// between Run calls on a sharded network.
func (n *Network) RestoreLink(id topo.LinkID) {
	n.checkQuiescent("RestoreLink")
	if n.LinkUp(id) {
		return
	}
	n.linkDownSince[id] = linkUp
	n.linkPipes(id)[0].ctr.tracer.LinkUp(n.now(), int32(id))
	for _, p := range n.linkPipes(id) {
		p.restore()
	}
}

// LinkUp reports whether link id is up.
func (n *Network) LinkUp(id topo.LinkID) bool { return n.linkDownSince[id] == linkUp }

// checkQuiescent panics if a windowed (multi-shard) run is in progress:
// callers mutate state every shard reads without synchronization.
func (n *Network) checkQuiescent(op string) {
	if n.group.Running() {
		panic("fabric: " + op + " during a sharded run; change link state between Run calls")
	}
}

// failoverActive reports whether the fast-failover rule covering link
// id has kicked in (the link has been down for at least the failover
// latency) as of the caller's clock. Switches pass their own engine's
// now so the check is shard-local.
func (n *Network) failoverActive(id topo.LinkID, now sim.Time) bool {
	since := n.linkDownSince[id]
	return since != linkUp && now >= since+failoverLatency
}

// LossRate returns queue-overflow drops as a fraction of packets
// offered to switch ports (host access pipes excluded), mirroring the
// paper's switch-counter measurement.
func (n *Network) LossRate() float64 {
	var drops, enq uint64
	for _, p := range n.pipes {
		if n.Topo.Nodes[p.from].Kind == topo.KindHost {
			continue
		}
		drops += p.Drops
		enq += p.EnqPackets
	}
	if enq == 0 {
		return 0
	}
	return float64(drops) / float64(enq)
}

// TelemetrySnapshot implements a telemetry probe over the data plane:
// aggregate counters plus per-link-direction transmit totals, drops,
// utilization over the run so far, and the queue-depth watermark.
func (n *Network) TelemetrySnapshot() map[string]any {
	links := make(map[string]any, len(n.pipes))
	elapsed := n.now()
	for _, p := range n.pipes {
		util := 0.0
		if elapsed > 0 {
			util = float64(p.TxBytes*8) / (elapsed.Seconds() * float64(p.link.BitsPerSec))
		}
		links[p.name()] = map[string]any{
			"tx_packets":      p.TxPackets,
			"tx_bytes":        p.TxBytes,
			"drops":           p.Drops,
			"drops_down":      p.DropsDown,
			"utilization":     util,
			"max_queue_bytes": p.MaxQueuedBytes,
		}
	}
	return map[string]any{
		"delivered":  n.TotalDelivered(),
		"drops":      n.TotalDrops(),
		"drops_down": n.TotalDropsDown(),
		"hop_drops":  n.TotalHopDrops(),
		"loss_rate":  n.LossRate(),
		"links":      links,
	}
}

// String summarizes counters for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("fabric{delivered=%d drops=%d down=%d hop=%d}",
		n.TotalDelivered(), n.TotalDrops(), n.TotalDropsDown(), n.TotalHopDrops())
}
