package main

import (
	"fmt"
	"runtime"
	"time"

	"presto/internal/cluster"
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/nic"
	"presto/internal/packet"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/tcp"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// Replay drivers. After the traced run, each driver rebuilds one layer
// through its public constructor, gives it benchmark-owned stub
// neighbours, and replays either the busiest receiver's captured
// packet stream or a stream synthesised from the workload's own flows,
// timing batches of driverBatch calls. The numbers say what one call
// into a layer costs on this workload's traffic, with no other layer
// on the stack; they attribute, they do not add up to wall_s.
const (
	driverBatch   = 1024 // calls (or packets) per timed batch
	driverBatches = 9    // batches per driver when the stream is synthetic; the median is reported
)

// driverInput is what the finished traced run hands the drivers.
type driverInput struct {
	w           workload
	c           *cluster.Cluster // for label mappings, flow keys, GRO flavour
	tapped      packet.HostID
	capture     []arrival
	sized       []sizedFlow
	pendingMean float64 // mean event-queue depth at the slice ends
}

// stopwatch times batches of calls and counts their allocations.
type stopwatch struct {
	nsPerCall      []float64
	mallocs, calls uint64
}

// time runs fn, which makes the given number of calls.
func (s *stopwatch) time(calls int, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	s.nsPerCall = append(s.nsPerCall, float64(d.Nanoseconds())/float64(calls))
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.calls += uint64(calls)
}

// timeBatches times fn over xs in consecutive batches of up to
// driverBatch elements, one call per element.
func timeBatches[T any](s *stopwatch, xs []T, fn func(batch []T)) {
	for len(xs) > 0 {
		batch := xs[:min(driverBatch, len(xs))]
		xs = xs[len(batch):]
		s.time(len(batch), func() { fn(batch) })
	}
}

func (s *stopwatch) ns() float64     { return median(s.nsPerCall) }
func (s *stopwatch) allocs() float64 { return ratio(float64(s.mallocs), float64(s.calls)) }

// Stub neighbours.
type nullOutput struct{}

func (nullOutput) DeliverSegment(*packet.Segment) {}

type nullSender struct{}

func (nullSender) SendSegment(*packet.Segment) {}

type countingHandler struct{ n int }

func (h *countingHandler) HandlePacket(*packet.Packet) { h.n++ }

// countingDown is a tcp.Downstream that drops what it is sent,
// remembering how many segments and the highest data byte.
type countingDown struct {
	n  int
	hi uint32
}

func (d *countingDown) Send(seg *packet.Segment) {
	d.n++
	if seg.Len() > 0 && packet.SeqGT(seg.EndSeq, d.hi) {
		d.hi = seg.EndSeq
	}
}

// loopback is a tcp.Downstream that hands segments to the peer
// endpoint one simulated microsecond later.
type loopback struct {
	eng  *sim.Engine
	peer *tcp.Endpoint
}

func (l *loopback) Send(seg *packet.Segment) {
	l.eng.Schedule(sim.Microsecond, func() { l.peer.DeliverSegment(seg) })
}

// runDrivers runs every driver, each under its own span, and stores
// the driver metrics in host. A driver whose replay loses work reports
// an error: a number timed on the wrong work is worse than none.
func runDrivers(tr *tracer, host map[string]float64, in driverInput) error {
	drivers := []struct {
		span string
		run  func(map[string]float64, driverInput) error
	}{
		{"driver.sim.schedule+timer_reset", driveSim},
		{"driver.gro.receive+flush", driveGRO},
		{"driver.nic.tso+rx", driveNIC},
		{"driver.fabric.forward", driveFabric},
		{"driver.tcp.ack+data+conn", driveTCP},
		{"driver.vswitch.select", driveVSwitch},
		{"driver.cluster.dial_close", driveCluster},
	}
	for _, d := range drivers {
		end := tr.begin(d.span)
		err := d.run(host, in)
		end(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", d.span, err)
		}
	}
	return nil
}

// driveSim times the engine alone at the workload's queue depth: one
// Schedule plus one dispatch per call, and one Timer.Reset (cancel +
// rearm) per call.
func driveSim(host map[string]float64, in driverInput) error {
	depth := int(in.pendingMean)
	if depth < 1 {
		depth = 1
	}
	e := sim.NewEngine()
	left := 0
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			e.Schedule(sim.Microsecond, tick)
		}
	}
	var sched stopwatch
	for b := 0; b < driverBatches; b++ {
		for i := 0; i < depth; i++ {
			e.Schedule(sim.Time(i), tick)
		}
		left = driverBatch
		sched.time(driverBatch+depth, func() { e.RunAll() })
	}
	host["sim.driver.schedule_ns"] = sched.ns()

	for i := 0; i < depth; i++ {
		e.Schedule(sim.Time(i)*sim.Millisecond, func() {})
	}
	tm := sim.NewTimer(e, func() {})
	var reset stopwatch
	for b := 0; b < driverBatches; b++ {
		reset.time(driverBatch, func() {
			for i := 0; i < driverBatch; i++ {
				tm.Reset(sim.Microsecond + sim.Time(i&7))
			}
		})
	}
	host["sim.driver.timer_reset_ns"] = reset.ns()
	return nil
}

// driveGRO replays the captured stream into the workload's GRO handler
// in poll-sized batches at the captured arrival times (so hold timers
// fire as they did), then times Flush alone over the flow table the
// replay left behind — every flow the receiver has seen.
func driveGRO(host map[string]float64, in driverInput) error {
	eng := sim.NewEngine()
	var g gro.Handler = gro.NewOfficial(eng, nullOutput{})
	if in.c.SchemeInfo().GRO == scheme.GROPresto {
		g = gro.NewPresto(eng, nullOutput{}, gro.PrestoConfig{})
	}
	poll := nic.DefaultConfig()
	var recv stopwatch
	timeBatches(&recv, in.capture, func(batch []arrival) {
		for len(batch) > 0 {
			// One poll: up to PollBudget packets that arrived within
			// one coalescing delay of the first.
			n := 1
			for n < len(batch) && n < poll.PollBudget && batch[n].at-batch[0].at < poll.CoalesceDelay {
				n++
			}
			eng.Run(batch[n-1].at)
			for _, a := range batch[:n] {
				g.Receive(a.p)
			}
			g.Flush()
			batch = batch[n:]
		}
	})
	if got := g.Stats().PacketsIn + g.Stats().ControlOut; got != uint64(len(in.capture)) {
		return fmt.Errorf("gro consumed %d of %d captured packets", got, len(in.capture))
	}
	host["gro.driver.receive_ns_per_pkt"] = recv.ns()
	host["gro.driver.allocs_per_pkt"] = recv.allocs()

	var flush stopwatch
	for b := 0; b < driverBatches; b++ {
		flush.time(driverBatch, func() {
			for i := 0; i < driverBatch; i++ {
				g.Flush()
			}
		})
	}
	host["gro.driver.flush_ns"] = flush.ns()
	return nil
}

// stubNetwork builds a one-switch fabric with the workload's host
// count, a counting handler on every host port, and every label the
// capture carries installed towards its destination's port.
func stubNetwork(in driverInput) (*sim.Engine, *fabric.Network, *countingHandler) {
	tp := topo.SingleSwitch(in.c.Topo.NumHosts(), topo.LinkConfig{})
	eng := sim.NewEngine()
	net := fabric.New(eng, tp, fabric.Config{})
	sink := &countingHandler{}
	for h := 0; h < tp.NumHosts(); h++ {
		net.AttachHost(packet.HostID(h), sink)
	}
	sw := net.Switch(tp.Leaves[0])
	for _, a := range in.capture {
		if a.p.DstMAC.IsLabel() {
			sw.InstallLabel(a.p.DstMAC, tp.HostLink(a.p.Flow.Dst.Host))
		}
	}
	return eng, net, sink
}

// driveFabric forwards the captured packets across one switch: host
// pipe, switch lookup, host pipe, delivery.
func driveFabric(host map[string]float64, in driverInput) error {
	eng, net, sink := stubNetwork(in)
	var fwd stopwatch
	for _, a := range in.capture {
		a.p.Hops = 0 // clones carry the hop count of their real journey
	}
	timeBatches(&fwd, in.capture, func(batch []arrival) {
		for _, a := range batch {
			net.SendFromHost(a.p.Flow.Src.Host, a.p)
		}
		eng.RunAll()
	})
	if sink.n != len(in.capture) {
		return fmt.Errorf("fabric delivered %d of %d captured packets", sink.n, len(in.capture))
	}
	host["fabric.driver.forward_ns"] = fwd.ns()
	host["fabric.driver.forward_allocs"] = fwd.allocs()
	return nil
}

// tsoSegments rebuilds the senders' TSO writes from the captured data
// packets: runs of contiguous same-flowcell packets of one flow, up to
// the 64 KB segment size.
func tsoSegments(capture []arrival) []*packet.Segment {
	var segs []*packet.Segment
	open := map[packet.FlowKey]*packet.Segment{}
	for _, a := range capture {
		p := a.p
		if p.Payload == 0 {
			continue
		}
		if s := open[p.Flow]; s != nil && s.EndSeq == p.Seq && s.FlowcellID == p.FlowcellID && s.Len()+p.Payload <= packet.MaxSegSize {
			s.EndSeq = p.EndSeq()
			continue
		}
		s := &packet.Segment{
			SrcMAC: p.SrcMAC, DstMAC: p.DstMAC, Flow: p.Flow,
			StartSeq: p.Seq, EndSeq: p.EndSeq(), FlowcellID: p.FlowcellID,
			Flags: p.Flags, Ack: p.Ack, SentAt: p.SentAt,
		}
		open[p.Flow] = s
		segs = append(segs, s)
	}
	return segs
}

// driveNIC times the NIC's two halves on the stub network: the TSO
// split of the rebuilt segments into MTU packets (the draining of the
// host pipe is not timed), and the RX ring + poll loop over the
// captured packets with a pass-through GRO, so only the NIC's own
// machinery is on the clock.
func driveNIC(host map[string]float64, in driverInput) error {
	eng, net, _ := stubNetwork(in)
	n := nic.New(eng, net, in.tapped, nullOutput{}, func(out gro.Output) gro.Handler { return gro.NewNone(eng, out) }, nic.Config{})

	var tso stopwatch
	for rest := tsoSegments(in.capture); len(rest) > 0; {
		pkts, k := 0, 0
		for k < len(rest) && pkts < driverBatch {
			pkts += (rest[k].Len() + packet.MSS - 1) / packet.MSS
			k++
		}
		batch := rest[:k]
		rest = rest[k:]
		sent := n.Stats.TxPackets
		tso.time(pkts, func() {
			for _, s := range batch {
				n.SendSegment(s)
			}
		})
		if got := int(n.Stats.TxPackets - sent); got != pkts {
			return fmt.Errorf("tso emitted %d packets, expected %d", got, pkts)
		}
		eng.RunAll()
	}
	host["nic.driver.tso_ns_per_pkt"] = tso.ns()
	host["nic.driver.tso_allocs_per_pkt"] = tso.allocs()

	var rx stopwatch
	timeBatches(&rx, in.capture, func(batch []arrival) {
		for _, a := range batch {
			n.HandlePacket(a.p)
		}
		eng.RunAll()
	})
	if n.Stats.RxDrops > 0 {
		return fmt.Errorf("rx ring dropped %d packets", n.Stats.RxDrops)
	}
	host["nic.driver.rx_ns_per_pkt"] = rx.ns()
	return nil
}

// driveTCP times the transport alone. ack_ns: one cumulative ACK (two
// MSS) processed by a sender with unlimited data, including the new
// segments it releases into a counting Downstream. data_ns: one
// in-order data segment of the run's mean GRO output size accepted by
// a receiver, including the ACK it emits. conn_ns: a connection's
// whole life — two endpoints, SYN/SYN-ACK, one MSS, FIN/FIN — over an
// engine-scheduled loopback.
func driveTCP(host map[string]float64, in driverInput) error {
	flow := packet.FlowKey{Src: packet.Addr{Host: 0, Port: 10000}, Dst: packet.Addr{Host: 1, Port: 5001}}

	eng := sim.NewEngine()
	down := &countingDown{}
	snd := tcp.New(eng, flow, down, tcp.Config{})
	snd.SetUnlimited(true)
	ack := &packet.Segment{Flow: flow.Reverse(), Flags: packet.FlagACK, Ack: 1}
	var acks stopwatch
	for b := 0; b < driverBatches; b++ {
		acks.time(driverBatch, func() {
			for i := 0; i < driverBatch; i++ {
				ack.Ack += 2 * packet.MSS
				snd.DeliverSegment(ack)
			}
		})
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	if want := uint64(driverBatches * driverBatch * 2 * packet.MSS); snd.Acked() != want || packet.SeqLT(down.hi, ack.Ack) {
		return fmt.Errorf("sender acked %d bytes, expected %d", snd.Acked(), want)
	}
	host["tcp.driver.ack_ns"] = acks.ns()

	var bytesOut, segsOut uint64
	for _, h := range in.c.Hosts {
		bytesOut += h.NIC.GRO().Stats().BytesOut
		segsOut += h.NIC.GRO().Stats().SegmentsOut
	}
	segLen := uint32(max(packet.MSS, min(packet.MaxSegSize, int(ratio(float64(bytesOut), float64(segsOut))))))
	rcv := tcp.New(sim.NewEngine(), flow.Reverse(), &countingDown{}, tcp.Config{})
	data := &packet.Segment{Flow: flow, Flags: packet.FlagACK, Ack: 1, StartSeq: 1, EndSeq: 1}
	var datas stopwatch
	for b := 0; b < driverBatches; b++ {
		datas.time(driverBatch, func() {
			for i := 0; i < driverBatch; i++ {
				data.StartSeq, data.EndSeq = data.EndSeq, data.EndSeq+segLen
				rcv.DeliverSegment(data)
			}
		})
	}
	if want := uint64(driverBatches*driverBatch) * uint64(segLen); rcv.Delivered() != want {
		return fmt.Errorf("receiver delivered %d bytes, expected %d", rcv.Delivered(), want)
	}
	host["tcp.driver.data_ns"] = datas.ns()

	// A fresh engine: RunAll must drain, and the unlimited sender above
	// keeps its retransmission timers armed for ever.
	eng = sim.NewEngine()
	cfg := tcp.Config{Handshake: true}
	var conns stopwatch
	var failed int
	for b := 0; b < driverBatches; b++ {
		conns.time(driverBatch, func() {
			for i := 0; i < driverBatch; i++ {
				f := flow
				f.Src.Port += uint16(i)
				la, lb := &loopback{eng: eng}, &loopback{eng: eng}
				a, z := tcp.New(eng, f, la, cfg), tcp.New(eng, f.Reverse(), lb, cfg)
				la.peer, lb.peer = z, a
				a.Write(packet.MSS)
				eng.RunAll()
				closed := false
				a.Shutdown(func() { closed = true })
				eng.RunAll()
				if !closed || z.Delivered() != packet.MSS {
					failed++
				}
			}
		})
	}
	if failed > 0 {
		return fmt.Errorf("%d loopback connections did not complete", failed)
	}
	host["tcp.driver.conn_ns"] = conns.ns()
	return nil
}

// driveVSwitch times the edge policy's Select on the tapped host's own
// flow population: the scheme is built through the registry as the
// cluster builds it, gets the host's real label mappings, and is sent
// every connection the host took part in — data segments for flows it
// sourced, ACKs for flows it sank — in the order they were opened.
func driveVSwitch(host map[string]float64, in driverInput) error {
	def := in.c.SchemeInfo()
	params, err := def.Resolve(nil)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(clusterSeed)
	policy := def.New(scheme.Host{ID: in.tapped, Fork: rng.Fork}, params)
	vs := vswitch.New(sim.NewEngine(), in.tapped, nullSender{}, policy)
	for h := range in.c.Hosts {
		vs.SetMapping(packet.HostID(h), in.c.Hosts[in.tapped].VS.Mapping(packet.HostID(h)))
	}

	const elephantSegs = 256 // segments replayed for an unlimited flow
	size := map[int]int{}
	for _, f := range in.sized {
		size[f.conn] = f.bytes
	}
	var segs []*packet.Segment
	for i, conn := range in.c.Conns() {
		if conn.Src != in.tapped && conn.Dst != in.tapped {
			continue
		}
		n := elephantSegs
		if b, ok := size[i]; ok {
			n = (b + packet.MaxSegSize - 1) / packet.MaxSegSize
		}
		for _, f := range conn.Flows() {
			for k := 0; k < n; k++ {
				s := &packet.Segment{Flow: f, StartSeq: uint32(k) * packet.MaxSegSize, Flags: packet.FlagACK}
				s.EndSeq = s.StartSeq
				if conn.Src == in.tapped {
					s.EndSeq += packet.MaxSegSize
				} else {
					s.Flow = f.Reverse()
				}
				segs = append(segs, s)
			}
		}
	}
	var sel stopwatch
	timeBatches(&sel, segs, func(batch []*packet.Segment) {
		for _, s := range batch {
			vs.Send(s)
		}
	})
	if int(vs.Stats.SegmentsOut) != len(segs) {
		return fmt.Errorf("vswitch passed %d of %d segments", vs.Stats.SegmentsOut, len(segs))
	}
	host["vswitch.driver.select_ns"] = sel.ns()
	host["vswitch.driver.select_allocs"] = sel.allocs()
	return nil
}

// driveCluster times opening and closing a connection on a fresh
// cluster of the workload's topology and scheme: endpoint pairs, port
// allocation, edge-table registration, and whatever the cluster keeps
// for every connection it has ever opened.
func driveCluster(host map[string]float64, in driverInput) error {
	c := cluster.New(cluster.Config{Topology: in.w.Topo(), Scheme: in.w.Scheme, Seed: clusterSeed})
	n := c.Topo.NumHosts()
	var dial stopwatch
	for b := 0; b < driverBatches; b++ {
		dial.time(driverBatch, func() {
			for i := 0; i < driverBatch; i++ {
				src := i % n
				c.Dial(packet.HostID(src), packet.HostID((src+n/2)%n)).Close()
			}
		})
	}
	host["cluster.driver.dial_close_ns"] = dial.ns()
	return nil
}
