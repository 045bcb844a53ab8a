// Package cluster assembles a whole emulated testbed: a topology's
// fabric, one host per server (vSwitch + NIC + GRO + transport
// endpoints), the central controller, and helpers for opening
// connections, probing RTT, and failing links. This is the layer the
// experiment harness drives.
//
// A cluster has one shape: it always runs on a sim.ShardGroup, and
// Config.Shards only sets the group's size. A serial run is the group
// of one, whose single engine is Cluster.Eng; a connection is always a
// list of subflows, and plain TCP is the list of one.
package cluster

import (
	"presto/internal/controller"
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/nic"
	"presto/internal/packet"
	"presto/internal/param"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/tcp"
	"presto/internal/telemetry"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// Scheme names the load-balancing configuration under test (§4): the
// edge policy, the receive-offload algorithm, the transport and the
// label mode. The value is a registry spec from internal/scheme, a
// name with optional parameters ("flowlet:gap=100us",
// "presto:gro=official") — any registered scheme works, the constants
// below are the paper's lineup at its defaults. The zero value selects
// ECMP.
type Scheme string

const (
	// ECMP pins each flow to one random end-to-end path (the paper's
	// ECMP baseline), with official GRO.
	ECMP Scheme = "ecmp"
	// MPTCP runs 8 subflows per connection, each ECMP-pinned, with
	// coupled congestion control and official GRO.
	MPTCP Scheme = "mptcp"
	// Presto sprays 64 KB flowcells round-robin over shadow-MAC
	// spanning trees with Presto GRO at receivers.
	Presto Scheme = "presto"
	// PrestoECMP stamps flowcells but lets switches hash them per hop
	// (Figure 14's comparison).
	PrestoECMP Scheme = "presto-ecmp"
	// PerPacket sprays every MTU packet (TSO off) with Presto GRO —
	// the per-packet baseline of §2.1.
	PerPacket Scheme = "per-packet"
)

// Config describes a testbed instance. A field exists because two
// runs set it differently, and New never overwrites a value the caller
// set: what the scheme spec decides (receive offload, congestion
// control, label mode, tree weights) comes from the scheme, and what
// no run varies is a constant in the package that reads it.
type Config struct {
	Topology *topo.Topology
	Scheme   Scheme
	Seed     uint64

	// TCP.Handshake requires a SYN/SYN-ACK exchange before data flows
	// (tcp.Config.Handshake); the rest of the transport is the scheme's.
	TCP    struct{ Handshake bool }
	NIC    nic.Config
	Fabric fabric.Config

	// Shards is the size of the cluster's shard group: the fabric is
	// partitioned into that many per-pod shards, each running its own
	// engine on its own goroutine with conservative lookahead
	// synchronization (the lookahead is the minimum propagation delay
	// across inter-pod links). Results are bit-identical at every size.
	// Values below 1 mean 1 (one engine, no windows); values above the
	// topology's pod count are capped.
	Shards int

	// Telemetry, when non-nil, wires the registry's tracer through every
	// component, each shard emitting into its own buffer, and registers
	// snapshot probes. It schedules nothing, so results and event counts
	// do not change. Nil (the default) leaves the whole layer off.
	Telemetry *telemetry.Registry
}

// Host is one server: its edge datapath and interface.
type Host struct {
	ID  packet.HostID
	VS  *vswitch.VSwitch
	NIC *nic.NIC
}

// Cluster is a running testbed.
type Cluster struct {
	// Eng is Group().Shard(0): the only engine of a one-shard cluster,
	// where driving it (Eng.Run, Eng.Schedule, Eng.Now) and driving the
	// cluster are interchangeable. On more shards it owns only shard
	// 0's hosts and switches. Use Run/RunAll/Now/StopRun to drive a
	// cluster of any size.
	Eng   *sim.Engine
	Topo  *topo.Topology
	Net   *fabric.Network
	Ctrl  *controller.Controller
	Hosts []*Host

	// group synchronizes the per-pod shard engines.
	group *sim.ShardGroup

	cfg      Config
	rng      *sim.RNG
	nextPort uint16
	conns    []*Conn
	taps     map[packet.HostID]*tap

	// Registry-resolved scheme state.
	def       *scheme.Scheme
	params    param.Resolved
	transport scheme.Transport
	tcp       tcp.Config
}

// New builds and wires a testbed. The controller's label state is
// installed immediately (the paper's preemptive push).
func New(cfg Config) *Cluster {
	if cfg.Topology == nil {
		panic("cluster: Config.Topology required")
	}
	if cfg.Scheme == "" {
		cfg.Scheme = ECMP
	}
	c := &Cluster{
		Topo:     cfg.Topology,
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15),
		nextPort: 10000,
		taps:     make(map[packet.HostID]*tap),
	}
	// The scheme spec: the registry schema's defaults overlaid with the
	// spec's values. A bad spec panics — New has no error return, and
	// front-ends validate specs via scheme.ParseSpec before building.
	spec, err := scheme.ParseSpec(string(cfg.Scheme))
	if err != nil {
		panic("cluster: " + err.Error())
	}
	c.def, c.params = spec.Scheme, spec.Resolved
	c.transport = c.def.TransportFor(c.params)
	c.tcp = tcp.Config{
		MaxSeg:    min(c.transport.MaxSeg, packet.MaxSegSize), // 0: the stack's default
		CC:        c.params.Enum("cc"),
		Handshake: cfg.TCP.Handshake,
	}
	shards := max(1, min(cfg.Shards, cfg.Topology.NumPods))
	shardOf, lookahead := shardPartition(cfg.Topology, shards)
	c.group = sim.NewShardGroup(shards, lookahead, cfg.Seed)
	c.Eng = c.group.Shard(0)
	c.Net = fabric.NewSharded(c.group, shardOf, cfg.Topology, cfg.Fabric)
	c.Ctrl = controller.New(c.Net, controller.Config{
		TunnelMode:  c.params.Enum("labels") == "tunnel",
		TreeWeights: c.def.Hooks.TreeWeights,
	})

	for i := 0; i < cfg.Topology.NumHosts(); i++ {
		h := packet.HostID(i)
		eng := c.engOf(h)
		vs := vswitch.New(eng, h, nil, c.newPolicy(h))
		n := nic.New(eng, c.Net, h, vs, receiveOffload(eng, c.params), cfg.NIC)
		vs.SetSender(n)
		c.Net.AttachHost(h, n)
		c.Ctrl.RegisterVSwitch(vs)
		c.Hosts = append(c.Hosts, &Host{ID: h, VS: vs, NIC: n})
	}
	c.Ctrl.InstallAll()
	c.wireTelemetry()
	return c
}

// shardPartition maps every node to a shard (pod p → shard p mod
// count; pod-less core/spine nodes round-robin) and returns the
// conservative lookahead: the minimum propagation delay over links
// whose endpoints land on different shards.
func shardPartition(t *topo.Topology, count int) ([]int32, sim.Time) {
	shardOf := make([]int32, len(t.Nodes))
	rr := 0
	for id := range t.Nodes {
		if p := t.PodOf(topo.NodeID(id)); p >= 0 {
			shardOf[id] = int32(p % count)
		} else {
			shardOf[id] = int32(rr % count)
			rr++
		}
	}
	lookahead := sim.Time(0)
	for _, l := range t.Links {
		if shardOf[l.A] == shardOf[l.B] {
			continue
		}
		if lookahead == 0 || l.Propagation < lookahead {
			lookahead = l.Propagation
		}
	}
	if lookahead <= 0 {
		// Fully partitioned shards never exchange events; any positive
		// lookahead keeps the group windows legal.
		lookahead = 1
	}
	return shardOf, lookahead
}

// engOf returns the engine host h's edge components run on.
func (c *Cluster) engOf(h packet.HostID) *sim.Engine {
	return c.Net.EngineFor(c.Topo.HostNode(h))
}

// Group returns the shard group driving the cluster (never nil; a
// group of one on a serial run, with Group().Shard(0) == Eng).
func (c *Cluster) Group() *sim.ShardGroup { return c.group }

// Shards returns the number of engine shards (1 on a serial run).
func (c *Cluster) Shards() int { return c.group.Shards() }

// Run advances simulated time to until and returns the new clock.
func (c *Cluster) Run(until sim.Time) sim.Time { return c.group.Run(until) }

// RunAll drains every pending event.
func (c *Cluster) RunAll() sim.Time { return c.group.RunAll() }

// Now returns the cluster's simulated clock.
func (c *Cluster) Now() sim.Time { return c.group.Now() }

// StopRun halts the in-progress Run from any goroutine (at the next
// window barrier with more than one shard).
func (c *Cluster) StopRun() { c.group.Stop() }

// Executed returns the number of events executed across all engines.
func (c *Cluster) Executed() uint64 { return c.group.Executed() }

// SchemeInfo returns the resolved registry descriptor driving this
// cluster.
func (c *Cluster) SchemeInfo() *scheme.Scheme { return c.def }

// receiveOffload returns the constructor of the receive-offload
// handler on eng that the resolved scheme's gro and alpha keys name.
func receiveOffload(eng *sim.Engine, p param.Resolved) func(out gro.Output) gro.Handler {
	switch p.Enum("gro") {
	case scheme.GROPresto.String():
		cfg := gro.PrestoConfig{Alpha: p.Float("alpha")}
		return func(out gro.Output) gro.Handler { return gro.NewPresto(eng, out, cfg) }
	case scheme.GRONone.String():
		return func(out gro.Output) gro.Handler { return gro.NewNone(eng, out) }
	}
	return func(out gro.Output) gro.Handler { return gro.NewOfficial(eng, out) }
}

// newPolicy builds a fresh policy instance for one host via the
// scheme registry. The Fork closure is lazy: only constructors that
// need randomness draw from the cluster stream, so schemes that never
// forked before the registry existed still don't — keeping RNG
// consumption order (and every downstream fork) byte-identical.
func (c *Cluster) newPolicy(h packet.HostID) vswitch.Policy {
	return c.def.New(scheme.Host{
		ID:   h,
		Fork: func() *sim.RNG { return c.rng.Fork() },
	}, c.params)
}

// FailLink fails a link in the fabric and notifies the controller,
// whose new mappings reach each vSwitch on that vSwitch's own engine.
// On more than one shard it is legal only between Run calls.
func (c *Cluster) FailLink(id topo.LinkID) {
	c.Net.FailLink(id)
	c.Ctrl.HandleLinkFailure(id)
}

// RestoreLink restores a link and notifies the controller, under the
// same rules as FailLink.
func (c *Cluster) RestoreLink(id topo.LinkID) {
	c.Net.RestoreLink(id)
	c.Ctrl.HandleLinkRestore(id)
}

// RNG returns a forked random stream (deterministic per call order).
func (c *Cluster) RNG() *sim.RNG { return c.rng.Fork() }

// tap interposes a capture callback before a NIC.
type tap struct {
	eng  *sim.Engine
	next fabric.Handler
	fn   func(at sim.Time, p *packet.Packet)
}

func (t *tap) HandlePacket(p *packet.Packet) {
	t.fn(t.eng.Now(), p)
	t.next.HandlePacket(p)
}

// TapHost inserts a packet-capture callback in front of host h's NIC:
// every packet delivered to the host is reported (with its arrival
// time) before normal processing. Multiple taps stack. The packet is
// only valid until fn returns — the NIC recycles it through the shard's
// packet.Pool once GRO has consumed it — so a tap that keeps packets
// keeps p.Clone(), as benchmark/trace.go does, or serializes them
// before returning, as cmd/capture does.
func (c *Cluster) TapHost(h packet.HostID, fn func(at sim.Time, p *packet.Packet)) {
	var next fabric.Handler = c.Hosts[h].NIC
	if t, ok := c.taps[h]; ok {
		next = t
	}
	t := &tap{eng: c.engOf(h), next: next, fn: fn}
	c.taps[h] = t
	c.Net.AttachHost(h, t)
}

// Conns returns every connection opened on this cluster.
func (c *Cluster) Conns() []*Conn { return c.conns }

func (c *Cluster) allocPort() uint16 {
	p := c.nextPort
	c.nextPort++
	if c.nextPort < 10000 {
		c.nextPort = 10000
	}
	return p
}
