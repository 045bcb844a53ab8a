package presto

import (
	"reflect"
	"testing"

	"presto/internal/sim"
)

// podCell is the podtraffic row's cell for one system on a topology.
func podCell(t *testing.T, sys, topology string) Cell {
	t.Helper()
	cells, err := podCells([]lineupRow{paper(sys)}, topology)
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

// TestRunPodTrafficShardedMatchesSerial pins the experiment-level
// bit-identity contract: the same pod workload must produce exactly
// equal results — down to float bit patterns — for every shard count.
func TestRunPodTrafficShardedMatchesSerial(t *testing.T) {
	opt := Options{Seed: 11, Warmup: 2 * sim.Millisecond, Duration: 5 * sim.Millisecond}
	for _, sys := range []string{"presto", "ecmp"} {
		cell := podCell(t, sys, "clos3:pods=3,hpl=1")
		opt.Shards = 1
		want := runCell(t, cell, opt)
		for _, shards := range []int{2, 3} {
			opt.Shards = shards
			got := runCell(t, cell, opt)
			if got.Shards != shards {
				t.Fatalf("%v: run used %d shards, want %d", sys, got.Shards, shards)
			}
			got.Shards = want.Shards
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v with %d shards diverged from serial:\nserial:  %+v\nsharded: %+v",
					sys, shards, want, got)
			}
		}
	}
}

// TestPodTraffic1000Hosts is the scale goal: a 1000-host 3-tier Clos
// (25 pods × 2 leaves × 20 hosts) completes under the sharded engine
// and moves traffic on every elephant.
func TestPodTraffic1000Hosts(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host run skipped in -short mode")
	}
	opt := Options{
		Seed:     3,
		Warmup:   200 * sim.Microsecond,
		Duration: sim.Millisecond,
		Shards:   25,
	}
	res := runCell(t, podCell(t, "presto", "clos3:pods=25,hpl=20"), opt)
	if res.Hosts != 1000 {
		t.Fatalf("topology has %d hosts, want 1000", res.Hosts)
	}
	if res.Shards != 25 {
		t.Fatalf("run used %d shards, want 25", res.Shards)
	}
	if res.MeanTput <= 0 {
		t.Fatalf("mean throughput %.3f Gbps, want > 0", res.MeanTput)
	}
	if res.Delivered == 0 || res.Events == 0 {
		t.Fatalf("no traffic moved: delivered=%d events=%d", res.Delivered, res.Events)
	}
}
