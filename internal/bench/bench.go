// Package bench hosts the microbenchmark bodies behind the repo's perf
// trajectory. The same functions back two entry points: the standard
// `go test -bench` wrappers in bench_test.go, and cmd/prestobench,
// which runs them via testing.Benchmark and writes the machine-readable
// BENCH_*.json artifacts the CI perf gate compares against.
//
// The headline benchmarks are allocation-gated: EngineScheduleRun,
// PrestoGROFlush, and TelemetryEmitRing must report 0 allocs/op in
// steady state (the event arena, the sorted-insert GRO path, and the
// tracer's overwrite-in-place ring exist to make that true), and the
// CI bench-smoke job fails on >20% allocs/op regressions against the
// committed baseline.
package bench

import (
	"fmt"
	"testing"

	presto "presto"
	"presto/internal/gro"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// Short trims the end-to-end benchmark windows; cmd/prestobench -short
// and `go test -short` both set it.
var Short bool

// Spec names one benchmark in the suite. Gated benchmarks participate
// in the CI allocs/op perf gate: their per-op allocation counts are
// window-independent, so a >20% regression against the committed
// BENCH_*.json baseline is a real hot-path change, not noise.
// ClusterEndToEnd is recorded but ungated — its allocs/op scale with
// the simulated window, which -short shrinks.
type Spec struct {
	Name  string
	Fn    func(*testing.B)
	Gated bool
}

// Suite returns the benchmark registry in canonical order.
func Suite() []Spec {
	return []Spec{
		{Name: "EngineScheduleRun", Fn: EngineScheduleRun, Gated: true},
		{Name: "EngineTimerReset", Fn: EngineTimerReset, Gated: true},
		{Name: "PrestoGROFlush", Fn: PrestoGROFlush, Gated: true},
		{Name: "PrestoGROReorderWindow", Fn: PrestoGROReorderWindow, Gated: true},
		{Name: "TelemetryEmitRing", Fn: TelemetryEmitRing, Gated: true},
		{Name: "TelemetrySnapshotDelta", Fn: TelemetrySnapshotDelta, Gated: true},
		{Name: "ClusterEndToEnd", Fn: ClusterEndToEnd, Gated: false},
		{Name: "ShardedClusterEndToEnd", Fn: ShardedClusterEndToEnd, Gated: false},
	}
}

// EngineScheduleRun measures one event through a queue held ~256 deep:
// a Schedule (arena alloc + heap push) plus a dispatch (heap pop +
// arena free) per op. Steady state must be allocation-free.
func EngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	const depth = 256
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			e.Schedule(sim.Microsecond, tick)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(sim.Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// EngineTimerReset measures the cancel+rearm path: every Reset removes
// the pending expiration from the middle of the heap and schedules a
// replacement.
func EngineTimerReset(b *testing.B) {
	e := sim.NewEngine()
	// Background population so the cancel path does real sift work.
	for i := 0; i < 64; i++ {
		e.Schedule(sim.Time(i)*sim.Millisecond, func() {})
	}
	tm := sim.NewTimer(e, func() {})
	tm.Reset(sim.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(sim.Microsecond + sim.Time(i&7))
	}
}

// devnull drops delivered segments.
type devnull struct{}

func (devnull) DeliverSegment(*packet.Segment) {}

var benchFlowTemplate = packet.FlowKey{
	Src: packet.Addr{Host: 1, Port: 4000},
	Dst: packet.Addr{Host: 2, Port: 5000},
}

func benchPacket(flow packet.FlowKey, seq uint32, fc uint32) *packet.Packet {
	return &packet.Packet{
		Flow:       flow,
		Seq:        seq,
		Payload:    packet.MSS,
		FlowcellID: fc,
		Flags:      packet.FlagACK,
	}
}

// PrestoGROFlush measures the Algorithm 2 flush walk in its hold
// steady state: 8 flows each parked on a flowcell-boundary gap, so
// every Flush walks the held lists, recomputes the adaptive deadline,
// and re-arms the hold timer without delivering anything. This is the
// per-poll cost every NIC pays while reordering is in flight; it must
// be allocation-free.
func PrestoGROFlush(b *testing.B) {
	eng := sim.NewEngine()
	g := gro.NewPresto(eng, devnull{}, gro.PrestoConfig{})
	for fl := 0; fl < 8; fl++ {
		flow := benchFlowTemplate
		flow.Src.Port = uint16(4000 + fl)
		// Flowcell 1 in order, then the head of flowcell 3: the missing
		// flowcell 2 is a boundary gap, held until the adaptive timeout.
		for i := 0; i < 4; i++ {
			g.Receive(benchPacket(flow, uint32(i*packet.MSS), 1))
		}
		g.Receive(benchPacket(flow, uint32(16*packet.MSS), 3))
	}
	g.Flush()
	if g.HeldSegments() != 8 {
		b.Fatalf("setup: held %d segments, want 8", g.HeldSegments())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Flush()
	}
}

// PrestoGROReorderWindow measures merge + sorted-insert + delivery for
// a reordered window: per op, two flowcells (64 packets) arrive
// interleaved out of order and all resolve within the poll, so the
// whole window is delivered by one Flush. Allocation here is inherent
// (each delivered segment is a fresh object); the benchmark tracks
// ns/op of the reorder-resolution path.
func PrestoGROReorderWindow(b *testing.B) {
	eng := sim.NewEngine()
	g := gro.NewPresto(eng, devnull{}, gro.PrestoConfig{})
	const cell = 32 // packets per flowcell
	seq := uint32(0)
	fc := uint32(1)
	window := func() {
		// Second half of cell fc+1 first, then cell fc, then the first
		// half of cell fc+1: both boundary gaps resolve in-poll.
		base := seq
		for i := cell / 2; i < cell; i++ {
			g.Receive(benchPacket(benchFlowTemplate, base+uint32((cell+i)*packet.MSS), fc+1))
		}
		for i := 0; i < cell; i++ {
			g.Receive(benchPacket(benchFlowTemplate, base+uint32(i*packet.MSS), fc))
		}
		for i := 0; i < cell/2; i++ {
			g.Receive(benchPacket(benchFlowTemplate, base+uint32((cell+i)*packet.MSS), fc+1))
		}
		g.Flush()
		seq += uint32(2 * cell * packet.MSS)
		fc += 2
	}
	window() // prime flow state
	if g.HeldSegments() != 0 {
		b.Fatalf("setup: %d segments held, want 0", g.HeldSegments())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}

// TelemetryEmitRing measures Emit in ring mode past the wrap point:
// the tracer overwrites the oldest slot in place, so the per-event
// cost every traced component pays in a bounded-memory run must be
// allocation-free in steady state.
func TelemetryEmitRing(b *testing.B) {
	tr := telemetry.NewTracer()
	tr.SetRing(1024)
	for i := 0; i < 2048; i++ {
		tr.FlowcellEmit(sim.Time(i), 1, uint32(i), i&7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.FlowcellEmit(sim.Time(i), 1, uint32(i), i&7)
	}
}

// TelemetrySnapshotDelta measures one incremental-snapshot step over a
// mostly-quiet registry: 16 static components plus one hot counter, so
// each delta carries a single changed cell. This is the steady-state
// cost of streaming live observability at a fixed cadence; allocations
// here scale with probe count, not run length, and are gated.
func TelemetrySnapshotDelta(b *testing.B) {
	reg := telemetry.NewRegistry(nil)
	for i := 0; i < 16; i++ {
		static := map[string]any{"a": uint64(1), "b": uint64(2)}
		reg.Register(fmt.Sprintf("comp%02d", i), func() map[string]any { return static })
	}
	var hot uint64
	reg.Register("hot", func() map[string]any { return map[string]any{"n": hot} })
	ss := reg.Stream(1 << 30) // steady state: no periodic keyframes
	ss.Next(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot++
		ss.Next(sim.Time(i + 1))
	}
}

// ClusterEndToEnd runs the Figure 5 GRO microbenchmark cluster (Presto
// spraying into Presto GRO) on a reduced window: the full stack —
// engine, TCP, fabric, NIC ring, GRO — in one number. Events/op is the
// engine's end-to-end dispatch count.
func ClusterEndToEnd(b *testing.B) {
	warmup, duration := 10*sim.Millisecond, 30*sim.Millisecond
	if Short {
		warmup, duration = 2*sim.Millisecond, 8*sim.Millisecond
	}
	cell, err := presto.FigureCell("fig5/gro=presto")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := cell.Run(presto.Options{
			Seed:   uint64(i + 1),
			Warmup: warmup, Duration: duration,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanTput, "Gbps")
	}
}

// ShardedClusterEndToEnd runs the pod-scale cross-pod elephant
// workload (4 pods, 2 hosts/leaf) under per-pod engine shards — the
// full sharded stack in one number: window barriers, cross-shard
// handoffs, per-shard RNG streams and counter buckets. The results are
// bit-identical to the serial engine, so this tracks only the parallel
// path's wall-clock and allocation behaviour. Ungated like
// ClusterEndToEnd: allocs/op scale with the simulated window.
func ShardedClusterEndToEnd(b *testing.B) {
	warmup, duration := 2*sim.Millisecond, 8*sim.Millisecond
	if Short {
		warmup, duration = 500*sim.Microsecond, 2*sim.Millisecond
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := presto.PodCell(presto.SysPresto, 4, 2).Run(presto.Options{
			Seed:   uint64(i + 1),
			Warmup: warmup, Duration: duration,
			Shards: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanTput, "Gbps")
	}
}

// SpeedupWindow returns the warmup and measurement windows for the
// serial-vs-sharded speedup comparison (cmd/prestobench's
// -speedup-floor gate), trimmed in Short mode so the CI smoke job
// stays fast. The wall-clock measurement itself lives in
// cmd/prestobench: the harness layer may read the wall clock, this
// package may not (simclock analyzer).
func SpeedupWindow() (warmup, duration sim.Time) {
	if Short {
		return sim.Millisecond, 5 * sim.Millisecond
	}
	return 2 * sim.Millisecond, 20 * sim.Millisecond
}
