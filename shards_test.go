package presto

import (
	"reflect"
	"testing"

	"presto/internal/sim"
)

// TestSpecCellShardsMatchSerial pins the -workload front door's
// contract: the elephants preset, RTT probers included, gives the
// serial run's result — metrics, distributions, event count and
// delivered packets — at every shard count.
func TestSpecCellShardsMatchSerial(t *testing.T) {
	opt := Options{Seed: 1, Warmup: 2 * sim.Millisecond, Duration: 10 * sim.Millisecond}
	for _, sys := range []string{"ecmp", "mptcp", "presto"} {
		cell, err := SpecCell(sys, preset("elephants"))
		if err != nil {
			t.Fatal(err)
		}
		opt.Shards = 1
		want := runCell(t, cell, opt)
		if want.RTT.N() == 0 {
			t.Fatalf("%s: serial run has no RTT samples", sys)
		}
		for _, shards := range []int{2, 4} {
			opt.Shards = shards
			got := runCell(t, cell, opt)
			if got.Shards != shards {
				t.Fatalf("%s: run used %d shards, want %d", sys, got.Shards, shards)
			}
			assertSameRun(t, sys, shards, want, got)
		}
	}
}

// TestShardedFailoverCellMatchesSerial runs Figure 17's stride cell —
// probers, a link failure and the controller's deferred push — on two
// shards, which paper cells never do by policy, and requires the
// serial run's result. The cell runs under a test-only copy of the
// failover measure that honors Options.Shards.
func TestShardedFailoverCellMatchesSerial(t *testing.T) {
	cell, err := FigureCell("fig17/wl=stride")
	if err != nil {
		t.Fatal(err)
	}
	m := measures["failover"]
	m.shards = true
	cell.Measure = addMeasure(t, "sharded-failover", m)
	opt := fastOpt(11)
	opt.Shards = 1
	want := runCell(t, cell, opt)
	opt.Shards = 2
	got := runCell(t, cell, opt)
	if got.Shards != 2 {
		t.Fatalf("run used %d shards, want 2", got.Shards)
	}
	assertSameRun(t, cell.ID, 2, want, got)
}

// addMeasure adds m to the measures table under name for the rest of
// the test, and returns name.
func addMeasure(t *testing.T, name string, m measure) string {
	t.Helper()
	if _, ok := measures[name]; ok {
		t.Fatalf("measure %s already exists", name)
	}
	measures[name] = m
	t.Cleanup(func() { delete(measures, name) })
	return name
}

// assertSameRun fails unless a sharded run reports exactly what the
// serial one did, down to float bit patterns.
func assertSameRun(t *testing.T, name string, shards int, want, got LoadResult) {
	t.Helper()
	got.Shards = want.Shards
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s at %d shards diverged from serial:\nserial:  %v events=%d\nsharded: %v events=%d",
			name, shards, want.Metrics, want.Events, got.Metrics, got.Events)
	}
}
