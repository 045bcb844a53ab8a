// Package controller implements Presto's centralized controller
// (§3.1, §3.3): it takes the fabric's spanning trees from topo.Trees —
// whatever the fabric's shape — gives every destination one label per
// tree (a shadow MAC per host, or a tunnel label per destination leaf
// in TunnelMode), installs label → egress at every switch on the tree,
// and pushes destination→label-list mappings to the edge vSwitches.
//
// On failure it relies on the fabric's hardware fast failover for the
// first milliseconds, then — after its own (slower) reaction latency —
// recomputes weighted mappings that exclude trees broken for each
// source/destination leaf pair and disseminates them to the edge.
package controller

import (
	"presto/internal/fabric"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// Config tunes controller behaviour.
type Config struct {
	// TunnelMode installs switch-to-switch tunnel labels — one per
	// (destination leaf, tree) — instead of per-host shadow MACs,
	// trading O(|vSwitches| x |paths|) rules for
	// O(|switches| x |paths|) (§3.1's scalability extension, as in
	// MOOSE/NetLord). The destination edge switch forwards on L3.
	TunnelMode bool
	// TreeWeights, when set, weights the usable trees for each
	// (source leaf, destination leaf) pair; the controller encodes the
	// weights as duplicated labels in the pushed mapping (the §3.3
	// mechanism). Schemes provide this through their registry hooks.
	TreeWeights func(tp *topo.Topology, trees []topo.Tree, srcLeaf, dstLeaf topo.NodeID) []float64
}

// weightSlots bounds a weighted label list's length, the per-destination
// state the vSwitch keeps on its datapath.
const weightSlots = 16

// updateLatency is how long after a failure the controller's new
// weighted mappings reach the vSwitches (the failover→weighted stage
// boundary in Figure 17): a 50 ms control loop, fast for a controller
// and slow next to hardware failover, as in §3.3. Hardware failover
// covers the gap.
const updateLatency = 50 * sim.Millisecond

// Controller is the central brain. It owns no engine: its deferred
// pushes run on the engines of the vSwitches they update.
type Controller struct {
	net  *fabric.Network
	topo *topo.Topology
	cfg  Config

	trees     []topo.Tree
	switches  []topo.NodeID       // every switch, in node order
	leafIdx   map[topo.NodeID]int // leaf → position in Topology.Leaves
	vswitches []*vswitch.VSwitch  // by host; nil for an unregistered host

	// Updates counts mapping pushes: the initial install plus one per
	// link failure or restore.
	Updates int
}

// New creates a controller for the given running fabric.
func New(net *fabric.Network, cfg Config) *Controller {
	c := &Controller{
		net:       net,
		topo:      net.Topo,
		cfg:       cfg,
		leafIdx:   make(map[topo.NodeID]int, len(net.Topo.Leaves)),
		vswitches: make([]*vswitch.VSwitch, net.Topo.NumHosts()),
	}
	for _, n := range c.topo.Nodes {
		if n.Kind != topo.KindHost {
			c.switches = append(c.switches, n.ID)
		}
	}
	for i, leaf := range c.topo.Leaves {
		c.leafIdx[leaf] = i
	}
	return c
}

// RegisterVSwitch attaches an edge vSwitch to the controller.
func (c *Controller) RegisterVSwitch(vs *vswitch.VSwitch) {
	c.vswitches[vs.Host] = vs
}

// Trees returns the allocated spanning trees (stable indices).
func (c *Controller) Trees() []topo.Tree { return c.trees }

// InstallAll allocates the spanning trees, installs one label per
// (tree, target) — a target is a host, or a destination leaf in
// TunnelMode — at every switch on each tree, and pushes the initial
// destination→labels mappings to all registered vSwitches.
func (c *Controller) InstallAll() {
	c.trees = c.topo.Trees()
	for _, sw := range c.switches {
		// Every switch, routed at or not: the failover rule cycles
		// through this many trees.
		c.net.Switch(sw).SetNumTrees(len(c.trees))
	}
	for _, tr := range c.trees {
		if c.cfg.TunnelMode {
			for _, leaf := range c.topo.Leaves {
				c.install(tr, c.label(tr, leaf, 0), leaf)
			}
			continue
		}
		for h := range c.topo.Hosts {
			host := packet.HostID(h)
			if c.topo.SpineAttached(host) {
				// Remote users hang off spines and are reached by
				// L3/real-MAC forwarding, never labels (§6).
				continue
			}
			leaf := c.topo.LeafOf(host)
			label := c.label(tr, leaf, host)
			c.install(tr, label, leaf)
			// The host's own leaf ends the label at the host port, even
			// when it routes nothing (the single switch).
			c.net.Switch(leaf).InstallLabel(label, c.topo.HostLink(host))
		}
	}
	c.Updates++
	routes := make(map[[2]topo.NodeID]leafRoute) // one pass, one cache for every vSwitch
	for _, vs := range c.vswitches {
		if vs != nil {
			c.pushMappings(vs, routes)
		}
	}
}

// install writes label's egress — tr's link toward dstLeaf — at every
// switch tr routes at. dstLeaf itself gets nothing here: a tunnel's
// terminus forwards on L3.
func (c *Controller) install(tr topo.Tree, label packet.MAC, dstLeaf topo.NodeID) {
	for _, sw := range c.switches {
		if lid, ok := tr.NextLink(sw, dstLeaf); ok {
			c.net.Switch(sw).InstallLabel(label, lid)
		}
	}
}

// label returns the label that reaches host dst, attached to dstLeaf,
// along tr: the leaf's tunnel label in TunnelMode (dst is ignored),
// the host's shadow MAC otherwise.
func (c *Controller) label(tr topo.Tree, dstLeaf topo.NodeID, dst packet.HostID) packet.MAC {
	if c.cfg.TunnelMode {
		return packet.TunnelMAC(c.leafIdx[dstLeaf], tr.Index)
	}
	return packet.ShadowMAC(dst, tr.Index)
}

// treeUsable reports whether tree tr currently connects the two
// leaves: every link on the tree path from srcLeaf to dstLeaf is up.
func (c *Controller) treeUsable(tr topo.Tree, srcLeaf, dstLeaf topo.NodeID) bool {
	up := true
	_, ok := tr.Walk(c.topo, srcLeaf, dstLeaf, func(lid topo.LinkID) { up = up && c.net.LinkUp(lid) })
	return ok && up
}

// usableTrees returns, in tree order, the trees that currently connect
// the two leaves.
func (c *Controller) usableTrees(srcLeaf, dstLeaf topo.NodeID) []topo.Tree {
	var usable []topo.Tree
	for _, tr := range c.trees {
		if c.treeUsable(tr, srcLeaf, dstLeaf) {
			usable = append(usable, tr)
		}
	}
	return usable
}

// appendLabels appends dst's label on each of trees to macs.
func (c *Controller) appendLabels(macs []packet.MAC, trees []topo.Tree, dstLeaf topo.NodeID, dst packet.HostID) []packet.MAC {
	for _, tr := range trees {
		macs = append(macs, c.label(tr, dstLeaf, dst))
	}
	return macs
}

// leafRoute is what a mapping needs from its leaf pair: the usable
// trees and, under TreeWeights, their weights.
type leafRoute struct {
	usable  []topo.Tree
	weights []float64
}

// pushMappings (re)computes and installs vs's per-destination label
// lists, excluding trees broken for each source/destination pair.
// Equal weights across surviving trees unless TreeWeights says
// otherwise (the duplication mechanism of §3.3). Which trees are
// usable, and their weights, depend on the leaf pair alone: routes
// caches them per pair, not per host pair.
func (c *Controller) pushMappings(vs *vswitch.VSwitch, routes map[[2]topo.NodeID]leafRoute) {
	srcLeaf := c.topo.LeafOf(vs.Host)
	// One backing array holds all of this source's label lists.
	buf := make([]packet.MAC, 0, len(c.topo.Hosts)*len(c.trees))
	for _, dstNode := range c.topo.Hosts {
		dst := c.topo.Nodes[dstNode].Host
		if dst == vs.Host {
			continue
		}
		if c.topo.SpineAttached(vs.Host) || c.topo.SpineAttached(dst) {
			// Remote users (either end) use plain L3 forwarding.
			vs.SetMapping(dst, nil)
			continue
		}
		if c.topo.SameLeaf(vs.Host, dst) || !c.topo.HasFabric() {
			// Direct: a single minimal path; no multipathing needed.
			vs.SetMapping(dst, nil)
			continue
		}
		dstLeaf := c.topo.LeafOf(dst)
		r, ok := routes[[2]topo.NodeID{srcLeaf, dstLeaf}]
		if !ok {
			r.usable = c.usableTrees(srcLeaf, dstLeaf)
			if c.cfg.TreeWeights != nil && len(r.usable) > 1 {
				r.weights = c.cfg.TreeWeights(c.topo, r.usable, srcLeaf, dstLeaf)
			}
			routes[[2]topo.NodeID{srcLeaf, dstLeaf}] = r
		}
		if len(r.usable) == 0 {
			vs.SetMapping(dst, nil)
			continue
		}
		start := len(buf)
		buf = c.appendLabels(buf, r.usable, dstLeaf, dst)
		macs := buf[start:len(buf):len(buf)]
		if r.weights != nil {
			if seq := WeightedLabels(macs, r.weights, weightSlots); seq != nil {
				macs = seq
			}
		}
		vs.SetMapping(dst, macs)
	}
}

// HandleLinkFailure is invoked when the fabric loses a link (the
// cluster wires fabric failures to this). The weighted-multipathing
// update lands after updateLatency; until then, senders keep spraying
// over the old label lists and the switches' fast failover detours
// the broken tree. Each vSwitch, in host order, recomputes its own
// mappings in an event on its own engine. A push writes only its
// vSwitch and reads link state, which a sharded fabric changes only
// between Run calls, so concurrent pushes share no write.
func (c *Controller) HandleLinkFailure(id topo.LinkID) {
	c.Updates++
	for _, vs := range c.vswitches {
		if vs != nil {
			vs.Eng.Schedule(updateLatency, func() {
				c.pushMappings(vs, make(map[[2]topo.NodeID]leafRoute))
			})
		}
	}
}

// HandleLinkRestore re-includes recovered trees after the same
// control-loop latency, through the same recompute.
func (c *Controller) HandleLinkRestore(id topo.LinkID) { c.HandleLinkFailure(id) }
