package presto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
)

func shortOpt(reg *telemetry.Registry) Options {
	return Options{
		Seed:      42,
		Warmup:    10 * sim.Millisecond,
		Duration:  20 * sim.Millisecond,
		Telemetry: reg,
	}
}

// sameLoadResult asserts every workload metric of two runs is
// bit-identical, and so are the events they executed and the packets
// they delivered — the core of the telemetry determinism regression.
func sameLoadResult(t *testing.T, plain, traced LoadResult) {
	t.Helper()
	if plain.Events != traced.Events {
		t.Errorf("Events diverged: %d vs %d", plain.Events, traced.Events)
	}
	if plain.Delivered != traced.Delivered {
		t.Errorf("Delivered diverged: %d vs %d", plain.Delivered, traced.Delivered)
	}
	if plain.MeanTput != traced.MeanTput {
		t.Errorf("MeanTput diverged: %v vs %v", plain.MeanTput, traced.MeanTput)
	}
	if plain.LossRate != traced.LossRate {
		t.Errorf("LossRate diverged: %v vs %v", plain.LossRate, traced.LossRate)
	}
	if plain.Fairness != traced.Fairness {
		t.Errorf("Fairness diverged: %v vs %v", plain.Fairness, traced.Fairness)
	}
	if plain.MiceTimeouts != traced.MiceTimeouts {
		t.Errorf("MiceTimeouts diverged: %d vs %d", plain.MiceTimeouts, traced.MiceTimeouts)
	}
	a, b := plain.RTT.Samples(), traced.RTT.Samples()
	if len(a) != len(b) {
		t.Fatalf("RTT sample counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RTT sample %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	fa, fb := plain.FCT.Samples(), traced.FCT.Samples()
	if len(fa) != len(fb) {
		t.Fatalf("FCT sample counts diverged: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("FCT sample %d diverged: %v vs %v", i, fa[i], fb[i])
		}
	}
}

// TestTelemetryDoesNotPerturbResults is the determinism regression
// test: the same seed must produce bit-identical metrics, event counts
// and deliveries whether the telemetry layer (tracer + probes) is on
// or off.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain := runFigure(t, "fig15/wl=stride/sys=Presto", shortOpt(nil))
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	traced := runFigure(t, "fig15/wl=stride/sys=Presto", shortOpt(reg))

	sameLoadResult(t, plain, traced)
	if snap := reg.Snapshot(0); snap.Components["engine"] == nil {
		t.Fatal("traced run left no engine probe")
	}
	if len(reg.Tracer().Events()) == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestIncrementalSnapshotsDoNotPerturbRun drives the same seeded
// cluster twice — once plain, once with a full registry snapshot taken
// between run chunks — serially and on two shards, and checks the
// host-level counters stay bit-identical: probes only read, at any
// point of a run.
func TestIncrementalSnapshotsDoNotPerturbRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		incrementalSnapshots(t, shards)
	}
}

func incrementalSnapshots(t *testing.T, shards int) {
	const horizon = 30 * sim.Millisecond

	ref := cluster.New(cluster.Config{
		Topology: testbed(),
		Scheme:   cluster.Presto,
		Seed:     42,
		Shards:   shards,
	})
	startStride(t, ref)
	ref.Run(horizon)

	reg := telemetry.NewRegistry(telemetry.NewTracer())
	c := cluster.New(cluster.Config{
		Topology:  testbed(),
		Scheme:    cluster.Presto,
		Seed:      42,
		Shards:    shards,
		Telemetry: reg,
	})
	if c.Shards() != shards {
		t.Fatalf("cluster runs on %d shards, want %d", c.Shards(), shards)
	}
	startStride(t, c)
	for until := 2 * sim.Millisecond; until <= horizon; until += 2 * sim.Millisecond {
		c.Run(until)
		if snap := reg.Snapshot(c.Now()); len(snap.Components) == 0 {
			t.Fatalf("%d shards: snapshot at %v is empty", shards, c.Now())
		}
	}
	if c.Executed() != ref.Executed() {
		t.Errorf("%d shards: events diverged: %d plain vs %d snapshotted", shards, ref.Executed(), c.Executed())
	}

	for i, h := range ref.Hosts {
		th := c.Hosts[i]
		if h.VS.Stats.Flowcells != th.VS.Stats.Flowcells {
			t.Errorf("%d shards: host %d flowcells diverged: %d vs %d", shards, i, h.VS.Stats.Flowcells, th.VS.Stats.Flowcells)
		}
		if h.NIC.GRO().Stats().SegmentsOut != th.NIC.GRO().Stats().SegmentsOut {
			t.Errorf("%d shards: host %d GRO segments diverged: %d vs %d",
				shards, i, h.NIC.GRO().Stats().SegmentsOut, th.NIC.GRO().Stats().SegmentsOut)
		}
	}
}

// TestTelemetryCountersConsistent pins the accounting invariants: each
// vSwitch's per-path flowcell counts sum to its total emitted
// flowcells, and each GRO handler's per-reason flush counts sum to its
// total segments pushed up.
func TestTelemetryCountersConsistent(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	c := cluster.New(cluster.Config{
		Topology:  testbed(),
		Scheme:    cluster.Presto,
		Seed:      42,
		Telemetry: reg,
	})
	startStride(t, c)
	c.Eng.Run(30 * sim.Millisecond)

	var totalCells uint64
	for _, h := range c.Hosts {
		var pathSum uint64
		for _, n := range h.VS.PathFlowcells() {
			pathSum += n
		}
		if pathSum != h.VS.Stats.Flowcells {
			t.Errorf("host %d: per-path flowcells sum %d != total %d",
				h.ID, pathSum, h.VS.Stats.Flowcells)
		}
		totalCells += h.VS.Stats.Flowcells

		st := h.NIC.GRO().Stats()
		var reasonSum uint64
		for _, n := range st.FlushReasons {
			reasonSum += n
		}
		if reasonSum != st.SegmentsOut {
			t.Errorf("host %d: flush reasons sum %d != segments out %d",
				h.ID, reasonSum, st.SegmentsOut)
		}
	}
	if totalCells == 0 {
		t.Fatal("no flowcells emitted under Presto stride")
	}

	// The traced FlowcellEmit events must agree with the counters.
	if got := reg.Tracer().CountKind(telemetry.KindFlowcellEmit); uint64(got) != totalCells {
		t.Errorf("traced FlowcellEmit events %d != counted flowcells %d", got, totalCells)
	}

	// And the snapshot must carry the same numbers through the probes.
	snap := reg.Snapshot(c.Eng.Now())
	vs0 := snap.Components["host0/vswitch"]
	if vs0 == nil {
		t.Fatal("snapshot missing host0/vswitch probe")
	}
	if vs0["flowcells"].(uint64) != c.Hosts[0].VS.Stats.Flowcells {
		t.Errorf("snapshot flowcells %v != live %d", vs0["flowcells"], c.Hosts[0].VS.Stats.Flowcells)
	}
}

// TestTraceExportFromRun drives a full Presto run and checks the Chrome
// trace export carries the load-bearing event types with populated
// arguments.
func TestTraceExportFromRun(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	runFigure(t, "fig15/wl=stride/sys=Presto", shortOpt(reg))

	var buf bytes.Buffer
	if err := reg.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var flowcells, flushes int
	for _, ev := range out.TraceEvents {
		if ev.Phase != "i" {
			continue
		}
		switch ev.Name {
		case "FlowcellEmit":
			flowcells++
		case "GROFlush":
			if r, _ := ev.Args["reason"].(string); r == "" {
				t.Fatalf("GROFlush without reason: %v", ev.Args)
			}
			flushes++
		}
	}
	if flowcells == 0 {
		t.Error("trace has no FlowcellEmit events")
	}
	if flushes == 0 {
		t.Error("trace has no GROFlush events")
	}
}

// TestEngineProbeCountsWork sanity-checks the engine probe fields the
// snapshot reports.
func TestEngineProbeCountsWork(t *testing.T) {
	reg := telemetry.NewRegistry(nil)
	c := cluster.New(cluster.Config{
		Topology:  testbed(),
		Scheme:    cluster.Presto,
		Seed:      1,
		Telemetry: reg,
	})
	startStride(t, c)
	c.Eng.Run(5 * sim.Millisecond)
	snap := reg.Snapshot(c.Eng.Now())
	eng := snap.Components["engine"]
	if eng == nil {
		t.Fatal("no engine probe")
	}
	if eng["events"].(uint64) == 0 {
		t.Error("engine executed no events")
	}
	if eng["peak_pending"].(int) <= 0 {
		t.Error("peak heap depth not tracked")
	}
}

// TestShardedTelemetryMatchesSerial pins telemetry at every shard
// count: the elephants spec cell, traced at 1, 2 and 4 shards, reports
// the serial run's result and event count, exports byte-identical
// event logs and Chrome traces, drops the same events, and leaves the
// same snapshot apart from the engine's per-shard queue peak.
func TestShardedTelemetryMatchesSerial(t *testing.T) {
	type traced struct {
		res           LoadResult
		events, trace []byte
		snap          *telemetry.Snapshot
		dropped       uint64
	}
	opt := Options{Seed: 1, Warmup: 2 * sim.Millisecond, Duration: 10 * sim.Millisecond}
	for _, sys := range []string{"ecmp", "presto"} {
		cell, err := SpecCell(sys, preset("elephants"))
		if err != nil {
			t.Fatal(err)
		}
		run := func(shards int) traced {
			reg := telemetry.NewRegistry(telemetry.NewTracer())
			opt.Shards, opt.Telemetry = shards, reg
			res := runCell(t, cell, opt)
			if res.Shards != shards {
				t.Fatalf("%s: run used %d shards, want %d", sys, res.Shards, shards)
			}
			var events, trace bytes.Buffer
			if err := reg.Tracer().WriteJSONL(&events); err != nil {
				t.Fatal(err)
			}
			if err := reg.Tracer().WriteChromeTrace(&trace); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot(0)
			delete(snap.Components["engine"], "peak_pending")
			return traced{res, events.Bytes(), trace.Bytes(), snap, reg.Tracer().Dropped()}
		}
		want := run(1)
		if len(want.events) == 0 || len(want.snap.Components) == 0 {
			t.Fatalf("%s: serial traced run exported no events or probes", sys)
		}
		for _, shards := range []int{2, 4} {
			got := run(shards)
			assertSameRun(t, sys, shards, want.res, got.res)
			if !bytes.Equal(got.events, want.events) {
				t.Errorf("%s at %d shards: event log differs from serial (%d vs %d bytes)", sys, shards, len(got.events), len(want.events))
			}
			if !bytes.Equal(got.trace, want.trace) {
				t.Errorf("%s at %d shards: Chrome trace differs from serial (%d vs %d bytes)", sys, shards, len(got.trace), len(want.trace))
			}
			if !reflect.DeepEqual(got.snap, want.snap) {
				t.Errorf("%s at %d shards: snapshot differs from serial", sys, shards)
			}
			if got.dropped != want.dropped {
				t.Errorf("%s at %d shards: dropped %d events, serial %d", sys, shards, got.dropped, want.dropped)
			}
		}
	}
}

// TestTracedShardedRunReleasesCluster pins that a finished run stops
// pinning its cluster: once a traced cell returns, the registry holds
// the run's final probe values and events, not its components, so the
// cluster (here, the topology only it refers to) can be collected.
func TestTracedShardedRunReleasesCluster(t *testing.T) {
	cell, err := SpecCell("presto", preset("elephants"))
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	m := measures[cell.Measure]
	m.observe = func(r *run) LoadResult {
		runtime.SetFinalizer(r.c.Topo, func(*topo.Topology) { close(freed) })
		return clientDetail(r)
	}
	cell.Measure = addMeasure(t, "finalized-clients", m)
	reg := telemetry.NewRegistry(telemetry.NewTracer())
	runCell(t, cell, Options{Seed: 1, Warmup: sim.Millisecond, Duration: 2 * sim.Millisecond, Shards: 2, Telemetry: reg})
	for range 100 {
		runtime.GC()
		runtime.Gosched() // the finalizer goroutine
		select {
		case <-freed:
			if eng := reg.Snapshot(0).Components["engine"]; eng == nil || eng["events"].(uint64) == 0 {
				t.Fatalf("finished run's engine probe lost its values: %v", eng)
			}
			return
		default:
		}
	}
	t.Fatal("a finished traced run's cluster is still reachable")
}
