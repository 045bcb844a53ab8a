package spec

import (
	"fmt"
	"hash/fnv"
	"math"

	"presto/internal/cluster"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
)

// Generator is a compiled workload spec bound to a cluster: an
// event-driven traffic source whose every random draw comes from
// per-client RNG streams derived from (run seed, client),
// so the generated event sequence is a pure function of spec + seed —
// independent of campaign parallelism or event interleaving elsewhere
// in the run.
type Generator struct {
	// Spec is the validated spec this generator was compiled from.
	Spec *Spec

	// OnFlowStart, when set before Start, observes every sized flow
	// the generator opens (FlowStart.At is absolute simulation time).
	// cmd/capture uses it to write a run's traffic as a replay spec.
	OnFlowStart func(FlowStart)
	// OnFlowDone, while set, observes every sized flow as it completes,
	// immediately before the flow's connection closes — the hook
	// measurements use to classify flows by size. Setting it after
	// warmup observes the measured window only.
	OnFlowDone func(FlowDone)

	c       *cluster.Cluster
	n       int // server count, fixed at Compile
	clients []*clientRun
	started bool
	// stop is when traffic stops (set by Start).
	stop sim.Time
}

// FlowDone describes one completed sized flow.
type FlowDone struct {
	// FlowStart is what OnFlowStart reported when the flow opened.
	FlowStart
	// FCT is the completion time: start to last request byte delivered,
	// or to last response byte for request/response clients.
	FCT sim.Time
	// TimedOut reports whether the sender hit at least one RTO.
	TimedOut bool
}

// ClientResult aggregates one client's traffic outcomes.
type ClientResult struct {
	// ID is the client's spec ID.
	ID string
	// Started/Finished count flows opened and completed; Timeouts
	// counts finished flows whose sender hit at least one RTO.
	Started  int
	Finished int
	Timeouts int
	// BytesMoved sums the sizes of completed flows.
	BytesMoved uint64
	// FCT holds completion times of finished sized flows, in
	// milliseconds. Unlimited (elephant) clients have none.
	FCT *metrics.Dist
	// Tput is the mean per-flow goodput in Gbps for unlimited clients
	// (0 for sized clients); filled by Results.
	Tput float64
}

// clientRun is the per-client runtime state.
type clientRun struct {
	cfg *Client
	rng *sim.RNG
	res ClientResult
	// eleph are the unlimited once-flows (throughput-measured), baseRx
	// their delivered bytes at the last baseline, taken at baseAt.
	eleph  []*cluster.Conn
	baseRx []uint64
	baseAt sim.Time
	// pairs is the enumerable pair set for pairs/stride/bijection and
	// once+random.
	pairs [][2]packet.HostID
	// queue holds, per shuffle source, the destinations not yet started.
	queue [][]packet.HostID
	// remotes are the north-south destinations.
	remotes []packet.HostID
}

// clientStream derives the client's RNG seed by mixing the run seed
// and the client's identity. Hashing the ID (not just the index) means
// reordering unrelated clients in a spec does not silently reshuffle a
// client's stream.
func clientStream(runSeed uint64, idx int, id string) *sim.RNG {
	h := fnv.New64a()
	h.Write([]byte(id)) //prestolint:allow errdrop -- hash.Hash.Write is documented to never return an error
	mixed := runSeed
	mixed ^= uint64(idx+1) * 0xbf58476d1ce4e5b9
	mixed ^= h.Sum64()
	return sim.NewRNG(mixed)
}

// serverCount counts server hosts, excluding spine-attached and
// marked-remote (north-south) endpoints.
func serverCount(c *cluster.Cluster) int {
	n := 0
	for i := 0; i < c.Topo.NumHosts(); i++ {
		h := packet.HostID(i)
		if !c.Topo.SpineAttached(h) && !c.Topo.IsRemote(h) {
			n++
		}
	}
	return n
}

// crossPod reports whether (src, dst) is a valid cross-pod pair. On a
// single-leaf topology every host shares the "pod", so the constraint
// degenerates to src != dst (otherwise the Optimal baseline could
// never run the random workloads).
func crossPod(c *cluster.Cluster, src, dst packet.HostID) bool {
	if src == dst {
		return false
	}
	if len(c.Topo.Leaves) < 2 {
		return true
	}
	return !c.Topo.SameLeaf(src, dst)
}

// randomCrossPodDst draws a cross-pod destination for src. The draw
// loop is bounded: after maxDraws rejections it falls back to a
// deterministic scan, and reports ok=false when the topology offers no
// valid destination at all — the caller must not retry, or a
// degenerate topology would hang the campaign runner.
func randomCrossPodDst(c *cluster.Cluster, rng *sim.RNG, src packet.HostID, n int) (packet.HostID, bool) {
	const maxDraws = 200
	for attempt := 0; attempt < maxDraws; attempt++ {
		d := packet.HostID(rng.Intn(n))
		if crossPod(c, src, d) {
			return d, true
		}
	}
	for d := 0; d < n; d++ {
		if crossPod(c, src, packet.HostID(d)) {
			return packet.HostID(d), true
		}
	}
	return 0, false
}

// Compile binds a validated spec to a cluster, running the
// topology-dependent checks Validate cannot (host IDs in range,
// remotes present for north-south, incast fan-in vs fabric size) and
// deriving each client's RNG stream from seed. On a sharded cluster
// only once+unlimited clients compile: everything else schedules
// events and records completions on one engine. The generator is
// inert until Start.
func Compile(ws *Spec, c *cluster.Cluster, seed uint64) (*Generator, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	n := serverCount(c)
	if n < 2 {
		return nil, fmt.Errorf("workload %q: topology has %d servers; need >= 2", ws.Name, n)
	}
	g := &Generator{Spec: ws, c: c, n: n}
	for i := range ws.Clients {
		cfg := &ws.Clients[i]
		cr := &clientRun{
			cfg: cfg,
			rng: clientStream(seed, i, cfg.ID),
			res: ClientResult{ID: cfg.ID, FCT: &metrics.Dist{}},
		}
		path := fmt.Sprintf("clients[%d]", i)
		if c.Shards() > 1 && (cfg.Arrival.Process != ProcOnce || cfg.Size.Kind != SizeUnlimited) {
			return nil, fmt.Errorf("%s.arrival.process: only once clients with unlimited size run on a sharded cluster (%d shards)", path, c.Shards())
		}
		if cfg.Trace == nil {
			if err := compileSelect(cr, c, n, path); err != nil {
				return nil, err
			}
		} else {
			for j, f := range cfg.Trace.Inline {
				if f.Src >= c.Topo.NumHosts() || f.Dst >= c.Topo.NumHosts() {
					return nil, fmt.Errorf("%s.trace.inline[%d]: host (%d, %d) out of range (topology has %d hosts)", path, j, f.Src, f.Dst, c.Topo.NumHosts())
				}
			}
		}
		g.clients = append(g.clients, cr)
	}
	return g, nil
}

// Servers returns the number of server hosts the workload runs over
// (remote users excluded).
func (g *Generator) Servers() int { return g.n }

// compileSelect materializes a client's selection policy against the
// topology.
func compileSelect(cr *clientRun, c *cluster.Cluster, n int, path string) error {
	sel := &cr.cfg.Select
	switch sel.Kind {
	case SelPairs:
		for i, p := range sel.Pairs {
			if p[0] >= c.Topo.NumHosts() || p[1] >= c.Topo.NumHosts() {
				return fmt.Errorf("%s.select.pairs[%d]: host (%d, %d) out of range (topology has %d hosts)",
					path, i, p[0], p[1], c.Topo.NumHosts())
			}
			cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(p[0]), packet.HostID(p[1])})
		}
	case SelStride:
		k := sel.Stride
		if k == 0 {
			k = n / 2
		}
		for i := 0; i < n; i++ {
			d := (i + k%n) % n
			if d == i {
				continue
			}
			cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(i), packet.HostID(d)})
		}
		if len(cr.pairs) == 0 {
			return fmt.Errorf("%s.select.stride: stride %d yields no pairs on %d servers", path, sel.Stride, n)
		}
	case SelBijection:
		perm := crossPodPermutation(c, cr.rng, n)
		for i, d := range perm {
			if i == d {
				continue
			}
			cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(i), packet.HostID(d)})
		}
		if len(cr.pairs) == 0 {
			return fmt.Errorf("%s.select.bijection: no valid cross-pod pairing on this topology", path)
		}
	case SelRandom:
		// Rate-based clients draw a pair per arrival; once draws one
		// destination per server here.
		if cr.cfg.Arrival.Process == ProcOnce {
			for i := 0; i < n; i++ {
				if d, ok := randomCrossPodDst(c, cr.rng, packet.HostID(i), n); ok {
					cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(i), d})
				}
			}
			if len(cr.pairs) == 0 {
				return fmt.Errorf("%s.select.random: no valid cross-pod pairing on this topology", path)
			}
		}
	case SelShuffle:
		cr.queue = make([][]packet.HostID, n)
		for i := range cr.queue {
			for _, d := range cr.rng.Perm(n) {
				if d != i {
					cr.queue[i] = append(cr.queue[i], packet.HostID(d))
				}
			}
		}
	case SelIncast:
		// Fan-in is capped by available distinct sources; a 32-way
		// incast spec still runs on a 16-host testbed as 15-way.
		if n-1 < 2 {
			return fmt.Errorf("%s.select.incast: topology has %d servers; incast needs >= 3", path, n)
		}
	case SelNorthSouth:
		for i := 0; i < c.Topo.NumHosts(); i++ {
			h := packet.HostID(i)
			if c.Topo.IsRemote(h) || c.Topo.SpineAttached(h) {
				cr.remotes = append(cr.remotes, h)
			}
		}
		if len(cr.remotes) == 0 {
			return fmt.Errorf("%s.select.northsouth: topology has no remote users (attach spine hosts or MarkRemote first)", path)
		}
	}
	return nil
}

// crossPodPermutation draws permutations until one is fully cross-pod.
// The search is bounded; the fallback is the first rotation whose pairs
// are all cross-pod — n/2 first, always valid in a balanced Clos — else
// rotation by 1, a derangement for any n >= 2 even when the constraint
// is unsatisfiable. Only n == 1 yields the identity, which callers
// treat as "no valid pairing".
func crossPodPermutation(c *cluster.Cluster, rng *sim.RNG, n int) []int {
	for attempt := 0; attempt < 200; attempt++ {
		p := rng.Perm(n)
		ok := true
		for i, d := range p {
			if !crossPod(c, packet.HostID(i), packet.HostID(d)) {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	rotation := func(k int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = (i + k) % n
		}
		return p
	}
	allCrossPod := func(p []int) bool {
		for i, d := range p {
			if !crossPod(c, packet.HostID(i), packet.HostID(d)) {
				return false
			}
		}
		return true
	}
	if n <= 1 {
		return make([]int, n)
	}
	if p := rotation(n / 2); allCrossPod(p) {
		return p
	}
	for k := 1; k < n; k++ {
		if k == n/2 {
			continue
		}
		if p := rotation(k); allCrossPod(p) {
			return p
		}
	}
	return rotation(1)
}

// Start launches every client's traffic, which stops at the time until. Call
// exactly once, before the measurement run.
func (g *Generator) Start(until sim.Time) {
	if g.started {
		panic("spec: Generator.Start called twice")
	}
	g.started = true
	g.stop = until
	if g.c.Now() >= until {
		return
	}
	for _, cr := range g.clients {
		switch {
		case cr.cfg.Trace != nil:
			g.runTrace(cr)
		case cr.cfg.Arrival.Process == ProcOnce:
			g.runOnce(cr)
		default:
			g.runArrivals(cr)
		}
	}
}

// runOnce opens the client's flows at run start: unlimited flows
// become throughput-tracked elephants (dialed without touching the
// engine, so they also run on a sharded cluster); shuffle starts two
// transfers per source; other sized flows open one per pair.
func (g *Generator) runOnce(cr *clientRun) {
	switch {
	case cr.cfg.Size.Kind == SizeUnlimited:
		for _, p := range cr.pairs {
			conn := g.c.Dial(p[0], p[1])
			conn.SetUnlimited(true)
			cr.eleph = append(cr.eleph, conn)
		}
		cr.baseRx = make([]uint64, len(cr.eleph))
		cr.baseAt = g.c.Now()
		cr.res.Started += len(cr.pairs)
	case cr.queue != nil:
		for src := range cr.queue {
			for k := 0; k < shuffleInFlight; k++ {
				g.nextTransfer(cr, packet.HostID(src))
			}
		}
	default:
		for _, p := range cr.pairs {
			g.openFlow(cr, p[0], p[1], sampleSize(&cr.cfg.Size, cr.rng))
		}
	}
}

// shuffleInFlight is how many transfers each shuffle source keeps in
// flight (§4: "two transfers at a time").
const shuffleInFlight = 2

// nextTransfer starts src's next queued shuffle transfer, if any
// remain and traffic has not stopped.
func (g *Generator) nextTransfer(cr *clientRun, src packet.HostID) {
	q := cr.queue[src]
	if len(q) == 0 || g.c.Now() >= g.stop {
		return
	}
	cr.queue[src] = q[1:]
	g.openFlow(cr, src, q[0], cr.cfg.Size.Bytes)
}

// runArrivals drives a poisson arrival process: each tick opens the
// flows for one arrival, then schedules the next after an exponential
// gap.
func (g *Generator) runArrivals(cr *clientRun) {
	mean := sim.Time(1e9 / cr.cfg.Rate) // mean inter-arrival, ns; Validate bounds it
	var tick func()
	tick = func() {
		if g.c.Eng.Now() >= g.stop {
			return
		}
		g.arrive(cr)
		g.c.Eng.Schedule(arrivalGap(cr.rng, mean), tick)
	}
	// Stagger the first arrival uniformly within one mean gap so
	// clients don't synchronize at t=0.
	g.c.Eng.Schedule(cr.rng.Duration(mean), tick)
}

// arrive opens the flows for one arrival event per the client's
// selection policy.
func (g *Generator) arrive(cr *clientRun) {
	n := g.n
	switch cr.cfg.Select.Kind {
	case SelPairs, SelStride, SelBijection:
		p := cr.pairs[cr.rng.Intn(len(cr.pairs))]
		g.openFlow(cr, p[0], p[1], sampleSize(&cr.cfg.Size, cr.rng))
	case SelRandom:
		src := packet.HostID(cr.rng.Intn(n))
		if dst, ok := randomCrossPodDst(g.c, cr.rng, src, n); ok {
			g.openFlow(cr, src, dst, sampleSize(&cr.cfg.Size, cr.rng))
		}
	case SelIncast:
		g.arriveIncast(cr, n)
	case SelNorthSouth:
		src := packet.HostID(cr.rng.Intn(n))
		dst := cr.remotes[cr.rng.Intn(len(cr.remotes))]
		g.openFlow(cr, src, dst, sampleSize(&cr.cfg.Size, cr.rng))
	}
}

// arriveIncast opens one fan-in burst: FanIn distinct sources (capped
// at n-1) each send one flow to a random destination simultaneously —
// the partition-aggregate pattern.
func (g *Generator) arriveIncast(cr *clientRun, n int) {
	dst := packet.HostID(cr.rng.Intn(n))
	fan := cr.cfg.Select.FanIn
	if fan > n-1 {
		fan = n - 1
	}
	// Draw FanIn distinct sources != dst via a partial shuffle.
	srcs := cr.rng.Perm(n)
	opened := 0
	for _, s := range srcs {
		if opened == fan {
			break
		}
		if packet.HostID(s) == dst {
			continue
		}
		g.openFlow(cr, packet.HostID(s), dst, sampleSize(&cr.cfg.Size, cr.rng))
		opened++
	}
}

// runTrace replays the client's recorded flow starts, optionally
// looping until traffic stops.
func (g *Generator) runTrace(cr *clientRun) {
	base, stop := g.c.Eng.Now(), g.stop
	trace := cr.cfg.Trace.Inline
	span := sim.Time(trace[len(trace)-1].At)
	if span <= 0 {
		span = sim.Millisecond
	}
	var lap func(offset sim.Time)
	lap = func(offset sim.Time) {
		for _, f := range trace {
			at := base + offset + sim.Time(f.At)
			if at >= stop {
				return
			}
			flow := f
			g.c.Eng.Schedule(at-g.c.Eng.Now(), func() {
				if g.c.Eng.Now() >= stop {
					return
				}
				g.openFlow(cr, packet.HostID(flow.Src), packet.HostID(flow.Dst), flow.Bytes)
			})
		}
		if cr.cfg.Trace.Loop {
			next := offset + span
			if base+next < stop {
				g.c.Eng.Schedule(base+next-g.c.Eng.Now(), func() { lap(next) })
			}
		}
	}
	lap(0)
}

// openFlow opens one sized flow and records its completion: when the
// last request byte is delivered, or — for request/response clients —
// when the destination's response has come back on the same
// connection.
func (g *Generator) openFlow(cr *clientRun, src, dst packet.HostID, size int) {
	if size <= 0 || src == dst {
		return
	}
	if g.OnFlowStart != nil {
		g.OnFlowStart(FlowStart{At: Duration(g.c.Eng.Now()), Src: int(src), Dst: int(dst), Bytes: size})
	}
	cr.res.Started++
	conn := g.c.Dial(src, dst)
	start := g.c.Eng.Now()
	conn.OnDelivered = func(total uint64) {
		if total < uint64(size) {
			return
		}
		conn.OnDelivered = nil
		if cr.cfg.ResponseBytes > 0 {
			conn.WriteReverse(cr.cfg.ResponseBytes)
			return
		}
		g.finishFlow(cr, conn, size, start)
	}
	if cr.cfg.ResponseBytes > 0 {
		conn.OnReverseDelivered = func(total uint64) {
			if total >= uint64(cr.cfg.ResponseBytes) {
				conn.OnReverseDelivered = nil
				g.finishFlow(cr, conn, size, start)
			}
		}
	}
	conn.Write(size)
}

// finishFlow records a completed flow, reports it, closes its
// connection, and — for shuffle — starts the source's next transfer.
func (g *Generator) finishFlow(cr *clientRun, conn *cluster.Conn, size int, start sim.Time) {
	cr.res.Finished++
	cr.res.BytesMoved += uint64(size)
	timedOut := conn.SenderTimeouts() > 0
	if timedOut {
		cr.res.Timeouts++
	}
	fct := g.c.Eng.Now() - start
	cr.res.FCT.Add(fct.Milliseconds())
	if g.OnFlowDone != nil {
		g.OnFlowDone(FlowDone{
			FlowStart: FlowStart{At: Duration(start), Src: int(conn.Src), Dst: int(conn.Dst), Bytes: size},
			FCT:       fct,
			TimedOut:  timedOut,
		})
	}
	conn.Close()
	if cr.queue != nil {
		g.nextTransfer(cr, conn.Src)
	}
}

// sampleSize draws one flow size in bytes from the client's
// distribution, applying the spec's bounds and a 1-byte floor.
func sampleSize(d *SizeDist, rng *sim.RNG) int {
	var size float64
	switch d.Kind {
	case SizeFixed:
		size = float64(d.Bytes)
	case SizeLognormal:
		size = d.MedianBytes * math.Exp(d.Sigma*rng.NormFloat64())
	case SizePareto:
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		size = d.ScaleBytes * math.Pow(u, -1/d.Alpha)
	case SizeEmpirical:
		size = sampleCDF(d.CDF, rng.Float64())
	default:
		return 0
	}
	if d.Min > 0 && size < float64(d.Min) {
		size = float64(d.Min)
	}
	if d.Max > 0 && size > float64(d.Max) {
		size = float64(d.Max)
	}
	if size < 1 {
		size = 1
	}
	if size > 1e9 {
		size = 1e9
	}
	return int(size)
}

// sampleCDF inverts an empirical CDF at u by linear interpolation
// between its points (below the first point, sizes interpolate from 0
// mass at the first point's bytes).
func sampleCDF(cdf []CDFPoint, u float64) float64 {
	if u <= cdf[0].Frac {
		return cdf[0].Bytes
	}
	for i := 1; i < len(cdf); i++ {
		if u <= cdf[i].Frac {
			lo, hi := cdf[i-1], cdf[i]
			t := (u - lo.Frac) / (hi.Frac - lo.Frac)
			return lo.Bytes + t*(hi.Bytes-lo.Bytes)
		}
	}
	return cdf[len(cdf)-1].Bytes
}

// arrivalGap draws one exponential inter-arrival gap, floored at 1µs
// so a draw near zero cannot schedule an event storm.
func arrivalGap(rng *sim.RNG, mean sim.Time) sim.Time {
	t := sim.Time(float64(mean) * rng.ExpFloat64())
	if t < sim.Microsecond {
		t = sim.Microsecond
	}
	return t
}

// ResetBaseline restarts measurement at now: elephant throughput
// baselines reset and per-client FCT distributions and counters clear,
// so warmup traffic does not pollute the measured window (or one
// failover stage the next).
func (g *Generator) ResetBaseline(now sim.Time) {
	for _, cr := range g.clients {
		cr.baseAt = now
		for i, conn := range cr.eleph {
			cr.baseRx[i] = conn.Delivered()
		}
		cr.res.FCT = &metrics.Dist{}
		cr.res.Started, cr.res.Finished, cr.res.Timeouts = 0, 0, 0
		cr.res.BytesMoved = 0
	}
}

// Throughputs returns the per-flow goodput in Gbps of every unlimited
// flow since the last baseline, in spec order (nil if the spec has no
// unlimited clients or no time has passed).
func (g *Generator) Throughputs(now sim.Time) []float64 {
	var all []float64
	for _, cr := range g.clients {
		all = append(all, cr.throughputs(now)...)
	}
	return all
}

// throughputs returns the client's per-elephant goodputs since its
// baseline.
func (cr *clientRun) throughputs(now sim.Time) []float64 {
	dur := now - cr.baseAt
	if dur <= 0 || len(cr.eleph) == 0 {
		return nil
	}
	out := make([]float64, len(cr.eleph))
	for i, conn := range cr.eleph {
		out[i] = float64(conn.Delivered()-cr.baseRx[i]) * 8 / dur.Seconds() / 1e9
	}
	return out
}

// mean averages ts (0 when empty).
func mean(ts []float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range ts {
		sum += t
	}
	return sum / float64(len(ts))
}

// MeanTput returns the mean per-flow elephant goodput in Gbps since
// the last baseline (0 if the spec has no unlimited clients).
func (g *Generator) MeanTput(now sim.Time) float64 { return mean(g.Throughputs(now)) }

// Fairness returns Jain's index over all elephant flows (0 if none).
func (g *Generator) Fairness(now sim.Time) float64 {
	return metrics.JainIndex(g.Throughputs(now))
}

// Results snapshots per-client outcomes at now, in spec order.
func (g *Generator) Results(now sim.Time) []ClientResult {
	out := make([]ClientResult, len(g.clients))
	for i, cr := range g.clients {
		out[i] = cr.res
		out[i].Tput = mean(cr.throughputs(now))
	}
	return out
}
