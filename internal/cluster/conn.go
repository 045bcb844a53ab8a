package cluster

import (
	"presto/internal/metrics"
	"presto/internal/mptcp"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/tcp"
)

// sender and receiver are the two method sets tcp.Endpoint shares with
// mptcp.Sender and mptcp.Receiver: what a Conn needs from its
// transport beyond the per-subflow endpoints.
type sender interface {
	Write(n int)
	SetUnlimited(on bool)
	Acked() uint64
	Done() bool
}

type receiver interface {
	Delivered() uint64
}

// Conn is an application-level connection from Src to Dst over the
// scheme's transport: a list of TCP subflows, coupled by MPTCP when
// there is more than one (plain TCP is the connection of one subflow,
// which is its own sender and receiver). The reverse direction carries
// ACKs and application responses (the paper's app-level
// acknowledgement for mice FCTs), which ride subflow 0.
type Conn struct {
	c        *Cluster
	Src, Dst packet.HostID

	fwd  []*tcp.Endpoint // at Src, one per subflow: send request data
	rev  []*tcp.Endpoint // at Dst, one per subflow: send responses
	send sender          // request bytes in: fwd[0] or the MPTCP scheduler over fwd
	recv receiver        // request bytes out: rev[0] or the MPTCP sum over rev

	flows []packet.FlowKey // forward flow key per subflow, for unregistering

	// OnDelivered fires at the destination as request bytes arrive
	// in order (connection total).
	OnDelivered func(total uint64)
	// OnReverseDelivered fires at the source as response bytes arrive.
	OnReverseDelivered func(total uint64)

	OpenedAt sim.Time
}

// Dial opens a connection between two hosts using the cluster's
// scheme.
func (c *Cluster) Dial(src, dst packet.HostID) *Conn {
	conn := &Conn{c: c, Src: src, Dst: dst, OpenedAt: c.Now()}
	cfg := c.tcpConfig()
	// Each endpoint runs on the engine of the host that owns it, so
	// every endpoint's timers stay shard-local.
	srcEng, dstEng := c.engOf(src), c.engOf(dst)
	// Endpoint trace events are attributed to the host whose stack runs
	// the endpoint: the forward sender lives at src, the reverse at dst.
	fwdCfg, revCfg := cfg, cfg
	fwdCfg.Tracer = c.cfg.Telemetry.Tracer()
	fwdCfg.TraceHost = int32(src)
	revCfg.Tracer = fwdCfg.Tracer
	revCfg.TraceHost = int32(dst)
	srcVS, dstVS := c.Hosts[src].VS, c.Hosts[dst].VS

	n := max(1, c.transport.Subflows)
	eps := make([]*tcp.Endpoint, 2*n) // one allocation for both sides: Dial is mice-churn's hot path
	conn.fwd, conn.rev = eps[:n:n], eps[n:]
	conn.flows = make([]packet.FlowKey, n)
	for i := range conn.flows {
		f := packet.FlowKey{
			Src: packet.Addr{Host: src, Port: c.allocPort()},
			Dst: packet.Addr{Host: dst, Port: 5001},
		}
		// The port counter wraps after 55,536 dials; a key a live
		// connection still owns must not be handed out again.
		for tries := 0; srcVS.Registered(f); tries++ {
			if tries == 1<<16 {
				panic("cluster: every source port between these hosts is in use")
			}
			f.Src.Port = c.allocPort()
		}
		conn.fwd[i] = tcp.New(srcEng, f, srcVS, fwdCfg)
		conn.rev[i] = tcp.New(dstEng, f.Reverse(), dstVS, revCfg)
		srcVS.Register(f, conn.fwd[i])
		dstVS.Register(f.Reverse(), conn.rev[i])
		conn.flows[i] = f
	}
	delivered := func(total uint64) {
		if conn.OnDelivered != nil {
			conn.OnDelivered(total)
		}
	}
	if n > 1 {
		recv := mptcp.NewReceiver(conn.rev)
		recv.OnDelivered = delivered
		conn.send, conn.recv = mptcp.NewSender(srcEng, conn.fwd), recv
	} else {
		conn.rev[0].OnDelivered = delivered
		conn.send, conn.recv = conn.fwd[0], conn.rev[0]
	}
	conn.fwd[0].OnDelivered = func(total uint64) {
		if conn.OnReverseDelivered != nil {
			conn.OnReverseDelivered(total)
		}
	}
	c.conns = append(c.conns, conn)
	return conn
}

// Write queues n request bytes at the source.
func (conn *Conn) Write(n int) { conn.send.Write(n) }

// WriteReverse queues n response bytes at the destination (the
// application-level acknowledgement).
func (conn *Conn) WriteReverse(n int) { conn.rev[0].Write(n) }

// SetUnlimited makes the forward direction an elephant.
func (conn *Conn) SetUnlimited(on bool) { conn.send.SetUnlimited(on) }

// Delivered returns request bytes delivered in order at Dst.
func (conn *Conn) Delivered() uint64 { return conn.recv.Delivered() }

// Acked returns request bytes acknowledged at Src.
func (conn *Conn) Acked() uint64 { return conn.send.Acked() }

// Done reports whether all written request bytes are acknowledged.
func (conn *Conn) Done() bool { return conn.send.Done() }

// SetProbe marks a single-subflow connection's traffic as latency
// probes (single-packet sockperf-style measurements that bypass GRO
// merging). A coupled connection's pings stay ordinary data — its
// scheduler may place them on any subflow — which is what the MPTCP
// RTT figures have always measured.
func (conn *Conn) SetProbe() {
	if len(conn.fwd) == 1 {
		conn.fwd[0].Probe, conn.rev[0].Probe = true, true
	}
}

// Receiver returns the destination-side endpoint of the connection's
// first subflow — under plain TCP, of the connection (instrumentation
// access: flowcell logs, stats).
func (conn *Conn) Receiver() *tcp.Endpoint { return conn.rev[0] }

// Sender returns the source-side endpoint of the connection's first
// subflow.
func (conn *Conn) Sender() *tcp.Endpoint { return conn.fwd[0] }

// SenderTimeouts returns RTO fires across the forward direction.
func (conn *Conn) SenderTimeouts() uint64 {
	var t uint64
	for _, e := range conn.fwd {
		t += e.Stats.Timeouts
	}
	return t
}

// Flows returns the forward flow key(s) of the connection (one for
// TCP, one per subflow for MPTCP).
func (conn *Conn) Flows() []packet.FlowKey { return conn.flows }

// Close unregisters the connection's flows from both edge tables. The
// NICs' receive-offload state for them is soft state that ages on its
// own, so a retransmission still in flight meets its flow's own entry.
func (conn *Conn) Close() {
	src, dst := conn.c.Hosts[conn.Src], conn.c.Hosts[conn.Dst]
	for _, f := range conn.flows {
		src.VS.Unregister(f)
		dst.VS.Unregister(f.Reverse())
	}
}

// Prober measures RTT sockperf-style: a 64-byte ping over a dedicated
// TCP connection, answered by a 64-byte application response; the
// round-trip is one sample. Probes repeat every Interval.
type Prober struct {
	Conn     *Conn
	Interval sim.Time
	Samples  metrics.Dist // milliseconds
	// RTTs and SampleAt record each sample and its completion time in
	// arrival order (Samples re-sorts internally, so stage-windowed
	// analyses like Figure 18 use these parallel slices).
	RTTs     []float64
	SampleAt []sim.Time

	c       *Cluster
	rounds  uint64
	sentAt  sim.Time
	stopped bool
}

// NewProber opens a probe connection between two hosts. Call Start to
// begin probing.
func (c *Cluster) NewProber(src, dst packet.HostID, interval sim.Time) *Prober {
	if c.Shards() > 1 {
		// The prober's sample bookkeeping is written from callbacks on
		// both hosts' engines, which may live on different shards.
		panic("cluster: Prober requires Shards <= 1")
	}
	p := &Prober{c: c, Interval: interval}
	p.Conn = c.Dial(src, dst)
	p.Conn.SetProbe()
	p.Conn.OnDelivered = func(total uint64) {
		// Every 64 request bytes completes a ping: answer it.
		if total >= (p.rounds+1)*64 {
			p.Conn.WriteReverse(64)
		}
	}
	p.Conn.OnReverseDelivered = func(total uint64) {
		if total >= (p.rounds+1)*64 {
			p.rounds++
			rtt := sim.Time(c.Eng.Now() - p.sentAt).Milliseconds()
			p.Samples.Add(rtt)
			p.RTTs = append(p.RTTs, rtt)
			p.SampleAt = append(p.SampleAt, c.Eng.Now())
			if !p.stopped {
				c.Eng.Schedule(p.Interval, p.ping)
			}
		}
	}
	return p
}

// Start begins probing now.
func (p *Prober) Start() { p.ping() }

// Stop ends probing after the in-flight round completes.
func (p *Prober) Stop() { p.stopped = true }

func (p *Prober) ping() {
	if p.stopped {
		return
	}
	p.sentAt = p.c.Eng.Now()
	p.Conn.Write(64)
}
