package fabric

import (
	"fmt"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// maxHops bounds forwarding steps per packet; exceeding it drops the
// packet (loop guard for pathological failure combinations).
const maxHops = 16

// Switch is one leaf or spine. It forwards on shadow-MAC labels using
// controller-installed exact-match L2 entries, and on real MACs using
// topology-derived routing with ECMP hash groups (used by the
// Presto+ECMP per-hop variant and by north-south traffic).
type Switch struct {
	net  *Network
	node topo.Node
	eng  *sim.Engine    // engine of this switch's shard
	ctr  *shardCounters // aggregate bucket of this switch's shard

	// labels maps shadow-MAC and tunnel labels to egress pipes, installed
	// by the controller (§3.1: "installs the relevant forwarding rules").
	labels labelTable
	// numTrees is the number of allocated spanning trees, used to
	// cycle to a backup tree during fast failover.
	numTrees int
	// nextLinks memoizes topo.NextLinksTo(this switch, dst) for real-MAC
	// forwarding and failover detours. Only this switch's shard reads
	// or fills it, so it needs no lock.
	nextLinks map[topo.NodeID][]topo.LinkID

	// RxPackets counts packets this switch forwarded.
	RxPackets uint64
}

func newSwitch(n *Network, node topo.Node) *Switch {
	return &Switch{
		net:       n,
		node:      node,
		eng:       n.EngineFor(node.ID),
		ctr:       n.counterOf(node.ID),
		nextLinks: make(map[topo.NodeID][]topo.LinkID),
	}
}

// nextLinksTo returns the equal-cost links out of this switch toward
// dst.
func (s *Switch) nextLinksTo(dst topo.NodeID) []topo.LinkID {
	links, ok := s.nextLinks[dst]
	if !ok {
		links = s.net.Topo.NextLinksTo(s.node.ID, dst)
		s.nextLinks[dst] = links
	}
	return links
}

// labelTable is a switch's exact-match label table. A label is (kind,
// tree, host | leaf), so the per-hop lookup indexes and hashes nothing:
// rows[2*tree+kind] grows to the highest host (shadow MACs) or leaf
// (tunnel MACs) installed on that tree, noEgress where nothing is. An
// entry is the egress pipe's index in Network.pipes (2·LinkID +
// direction), resolved at install, so a forward reads no link table.
type labelTable struct {
	rows [][]int32
	n    int // installed entries
}

const noEgress = -1

// labelIndex splits a label into its row and index; row < 0 if m is none.
func labelIndex(m packet.MAC) (row, id int) {
	switch {
	case m.IsShadow() && m.Host() >= 0:
		return 2 * m.ShadowTree(), int(m.Host())
	case m.IsTunnel():
		return 2*m.ShadowTree() + 1, m.TunnelLeaf()
	}
	return -1, 0
}

//prestolint:noalloc
func (t *labelTable) get(m packet.MAC) (pipe int32, ok bool) {
	r, id := labelIndex(m)
	if r < 0 || r >= len(t.rows) || id >= len(t.rows[r]) {
		return 0, false
	}
	e := t.rows[r][id]
	return e, e != noEgress
}

func (t *labelTable) set(m packet.MAC, pipe int32) {
	r, id := labelIndex(m)
	if r < 0 {
		panic("fabric: InstallLabel with a MAC that is not a label: " + m.String())
	}
	for len(t.rows) <= r {
		t.rows = append(t.rows, nil)
	}
	for len(t.rows[r]) <= id {
		t.rows[r] = append(t.rows[r], noEgress)
	}
	if t.rows[r][id] == noEgress {
		t.n++
	}
	t.rows[r][id] = pipe
}

// InstallLabel adds (or replaces) a label's forwarding entry. egress
// must be a link of this switch; any other panics here, not at the
// label's first forward.
func (s *Switch) InstallLabel(label packet.MAC, egress topo.LinkID) {
	for i, p := range s.net.linkPipes(egress) {
		if p.from == s.node.ID {
			s.labels.set(label, 2*int32(egress)+int32(i))
			return
		}
	}
	panic(fmt.Sprintf("fabric: switch %d: label %v installed on link %d, which does not touch the switch",
		s.node.ID, label, egress))
}

// SetNumTrees tells the switch how many trees exist (for backup-tree
// rewriting).
func (s *Switch) SetNumTrees(n int) { s.numTrees = n }

// LabelCount returns the number of installed label entries.
func (s *Switch) LabelCount() int { return s.labels.n }

// Egress returns the installed egress link for label, if any.
func (s *Switch) Egress(label packet.MAC) (topo.LinkID, bool) {
	pipe, ok := s.labels.get(label)
	return topo.LinkID(pipe / 2), ok
}

//prestolint:noalloc
func (s *Switch) forward(p *packet.Packet) {
	s.RxPackets++
	p.Hops++
	if p.Hops > maxHops {
		s.hopDrop(p)
		return
	}
	if p.DstMAC.IsLabel() {
		s.forwardLabel(p)
		return
	}
	s.forwardRealMAC(p)
}

// labelDstLeaf resolves the destination leaf of either label kind.
func (s *Switch) labelDstLeaf(m packet.MAC) topo.NodeID {
	if m.IsTunnel() {
		return s.net.Topo.Leaves[m.TunnelLeaf()]
	}
	return s.net.Topo.LeafOf(m.Host())
}

// forwardLabel handles shadow-MAC label switching, including the fast
// failover path: when the installed egress is down and the failover
// rule has activated, the label is rewritten to a backup tree
// (pre-determined, local decision) and forwarding retries.
//
//prestolint:noalloc
func (s *Switch) forwardLabel(p *packet.Packet) {
	if p.DstMAC.IsTunnel() && s.node.Kind == topo.KindLeaf &&
		s.labelDstLeaf(p.DstMAC) == s.node.ID {
		// Tunnel terminus: this is the destination edge switch —
		// forward on L3 information (§3.1), i.e. the packet's real
		// destination host.
		s.enqueue(s.net.Topo.HostLink(p.Flow.Dst.Host), p)
		return
	}
	if i, ok := s.labels.get(p.DstMAC); ok {
		pipe := s.net.pipes[i] // pipe.down is LinkUp without the lookup (see Pipe.down)
		if !pipe.down {
			pipe.Enqueue(p)
			return
		}
		egress := pipe.link.ID
		if s.net.failoverActive(egress, s.eng.Now()) && s.rewriteToBackupTree(p) {
			s.ctr.tracer.FailoverSwitch(s.eng.Now(), int32(s.node.ID), int32(egress), p.DstMAC.ShadowTree())
			s.forward(p)
			return
		}
		// Link down, failover not yet active (or no backup): black hole,
		// exactly what happens on hardware before the failover rule
		// fires.
		pipe.Enqueue(p)
		return
	}
	// No entry: this switch is not on the label's tree. This only
	// happens on a failover detour. Route toward the destination leaf
	// along a live shortest path if possible; otherwise hand the
	// packet to any live neighbor switch, which will route or relabel
	// it (the hop guard bounds pathological cascades).
	dstLeaf := s.labelDstLeaf(p.DstMAC)
	if s.node.ID == dstLeaf {
		// Final hop: deliver on the host port.
		host := p.Flow.Dst.Host
		if p.DstMAC.IsShadow() {
			host = p.DstMAC.Host()
		}
		s.enqueue(s.net.Topo.HostLink(host), p)
		return
	}
	for _, lid := range s.nextLinksTo(dstLeaf) {
		if s.net.LinkUp(lid) {
			s.enqueue(lid, p)
			return
		}
	}
	for _, lid := range s.net.Topo.LinksAt(s.node.ID) {
		other := s.net.Topo.Links[lid].Other(s.node.ID)
		if s.net.Topo.Nodes[other].Kind != topo.KindHost && s.net.LinkUp(lid) {
			s.enqueue(lid, p)
			return
		}
	}
	s.hopDrop(p)
}

// hopDrop ends a packet the loop guard or the lack of a live link stops.
//
//prestolint:noalloc
func (s *Switch) hopDrop(p *packet.Packet) {
	s.ctr.hopDrops++
	s.ctr.pool.Put(p)
}

// rewriteToBackupTree rewrites the packet's label to the next tree
// that either has a live local egress or is simply different (letting
// downstream switches route it). Reports whether a rewrite happened.
func (s *Switch) rewriteToBackupTree(p *packet.Packet) bool {
	if s.numTrees <= 1 {
		return false
	}
	cur := p.DstMAC.ShadowTree()
	relabel := func(t int) packet.MAC {
		if p.DstMAC.IsTunnel() {
			return packet.TunnelMAC(p.DstMAC.TunnelLeaf(), t)
		}
		return packet.ShadowMAC(p.DstMAC.Host(), t)
	}
	// Prefer a tree whose local egress is installed and up.
	for i := 1; i < s.numTrees; i++ {
		t := (cur + i) % s.numTrees
		label := relabel(t)
		if i, ok := s.labels.get(label); ok && !s.net.pipes[i].down {
			p.DstMAC = label
			return true
		}
	}
	// Otherwise any other tree; switches without an entry detour it.
	p.DstMAC = relabel((cur + 1) % s.numTrees)
	return true
}

// forwardRealMAC routes packets that carry the destination's real MAC:
// host port on the destination leaf, ECMP hash over live uplinks
// elsewhere. The hash covers the flow key and the flowcell ID, so the
// Presto+ECMP variant sprays flowcells per hop while plain flows stay
// pinned.
func (s *Switch) forwardRealMAC(p *packet.Packet) {
	t := s.net.Topo
	dst := p.DstMAC.Host()
	attach := t.LeafOf(dst)
	if s.node.ID == attach {
		s.enqueue(t.HostLink(dst), p)
		return
	}
	// Equal-cost next hops toward the destination's attachment point
	// (leaf for servers, spine for remote users), topology-agnostic.
	candidates := s.nextLinksTo(attach)
	lid, ok := pickECMP(s.net, candidates, p, s.eng.Now())
	if !ok {
		s.hopDrop(p)
		return
	}
	s.enqueue(lid, p)
}

// pickECMP hashes the packet onto one of the candidate links. Links
// whose failover rule has activated are excluded from the group
// (hardware ECMP prunes dead members after detection); before
// activation, dead links still attract (and black-hole) traffic.
func pickECMP(n *Network, candidates []topo.LinkID, p *packet.Packet, now sim.Time) (topo.LinkID, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	live := candidates[:0:0]
	for _, c := range candidates {
		if n.LinkUp(c) || !n.failoverActive(c, now) {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	h := p.Flow.Hash()
	h ^= p.FlowcellID * 2654435761 // Knuth multiplicative mix
	h ^= h >> 13
	h *= 0x5bd1e995
	h ^= h >> 15
	return live[int(h)%len(live)], true
}

//prestolint:noalloc
func (s *Switch) enqueue(lid topo.LinkID, p *packet.Packet) {
	s.net.Pipe(lid, s.node.ID).Enqueue(p)
}
