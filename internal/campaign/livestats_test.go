package campaign

import (
	"fmt"
	"math/rand"
	"testing"

	"presto/internal/metrics"
	"presto/internal/telemetry"
)

// statSamples is the deterministic "fct_ms" distribution replica
// (cell ci, seed) emits.
func statSamples(ci int, seed uint64) *metrics.Dist {
	rng := rand.New(rand.NewSource(int64(seed) + int64(ci)<<8))
	d := &metrics.Dist{}
	for j := 0; j < 500; j++ {
		d.Add(rng.Float64() * 100)
	}
	return d
}

// statSpec builds a three-cell campaign whose replicas emit statSamples.
func statSpec(stats *LiveStats, reg *telemetry.Registry, parallelism int) *Spec {
	cells := make([]Cell, 3)
	for i := range cells {
		ci := i
		cells[i] = Cell{
			Experiment: "live",
			ID:         fmt.Sprintf("live/cell=%d", ci),
			Run: func(seed uint64) (Result, error) {
				return Result{
					Metrics: Values{"x": float64(seed)},
					Dists:   map[string]*metrics.Dist{"fct_ms": statSamples(ci, seed)},
				}, nil
			},
		}
	}
	return &Spec{
		Name:        "livestats",
		Cells:       cells,
		Seeds:       Seeds(1, 4),
		Parallelism: parallelism,
		Stats:       stats,
		Telemetry:   reg,
	}
}

func TestLiveStatsAccumulatesAndIsOrderIndependent(t *testing.T) {
	// The exact pooled distribution over every replica's samples.
	var want metrics.Dist
	for ci := 0; ci < 3; ci++ {
		for _, seed := range Seeds(1, 4) {
			want.Merge(statSamples(ci, seed))
		}
	}
	// Run the same campaign serially and at full parallelism, with a
	// reader pooling mid-run as prestod's handlers do: both accumulators
	// must equal the exact pool despite different completion orders.
	for _, workers := range []int{1, 8} {
		ls := NewLiveStats()
		reg := telemetry.NewRegistry(nil)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					ls.MergeInto(map[string]*metrics.Dist{})
				}
			}
		}()
		_, err := Run(statSpec(ls, reg, workers))
		close(stop)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if done, failed := ls.Replicas(); done != 12 || failed != 0 {
			t.Fatalf("parallel=%d: replicas done/failed %d/%d, want 12/0", workers, done, failed)
		}
		got := map[string]*metrics.Dist{}
		ls.MergeInto(got)
		d := got["fct_ms"]
		if len(got) != 1 || d == nil || d.N() != want.N() {
			t.Fatalf("parallel=%d: pooled = %v, want fct_ms with %d samples", workers, got, want.N())
		}
		for _, p := range []float64{50, 95, 99, 99.9} {
			if g, w := d.Percentile(p), want.Percentile(p); g != w {
				t.Errorf("parallel=%d: p%v = %v, want exact %v", workers, p, g, w)
			}
		}
		if _, ok := reg.Snapshot(0).Components["stats"]; ok {
			t.Errorf("parallel=%d: campaign registered a stats probe", workers)
		}
	}
}

func TestLiveStatsNilSafe(t *testing.T) {
	var ls *LiveStats
	ls.observe(Result{}, nil)
	got := map[string]*metrics.Dist{}
	ls.MergeInto(got)
	if done, _ := ls.Replicas(); len(got) != 0 || done != 0 {
		t.Fatal("nil LiveStats recorded state")
	}
	// A spec with nil Stats runs unchanged.
	if _, err := Run(statSpec(nil, nil, 2)); err != nil {
		t.Fatal(err)
	}
}
