package spec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/topo"
)

func testCluster(seed uint64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Topology: topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   cluster.Presto,
		Seed:     seed,
	})
}

// compileRun compiles ws on a fresh cluster, runs for d, and returns
// the generator plus the cluster.
func compileRun(t *testing.T, ws *Spec, seed uint64, d sim.Time) (*Generator, *cluster.Cluster) {
	t.Helper()
	c := testCluster(seed)
	g, err := Compile(ws, c, seed)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	g.Start(d)
	c.Eng.Run(d)
	return g, c
}

func TestGeneratorPoissonRandom(t *testing.T) {
	ws := validSpec() // poisson, 1000 flows/s, random cross-pod, 1 KB
	g, c := compileRun(t, ws, 7, 100*sim.Millisecond)
	res := g.Results(c.Eng.Now())
	if len(res) != 1 {
		t.Fatalf("%d client results", len(res))
	}
	r := res[0]
	// 1000 flows/s over 100 ms ≈ 100 arrivals; allow wide slack.
	if r.Started < 50 || r.Started > 200 {
		t.Fatalf("started %d flows, want ~100", r.Started)
	}
	if r.Finished == 0 || r.FCT.N() == 0 {
		t.Fatalf("no flows finished: %+v", r)
	}
	if r.BytesMoved != uint64(r.Finished)*1000 {
		t.Fatalf("BytesMoved %d for %d finished 1 KB flows", r.BytesMoved, r.Finished)
	}
}

// TestGeneratorDeterminism pins the core invariant: same spec + seed →
// the identical event sequence (every flow start and completion, to
// the nanosecond) and identical results, however many times it runs —
// for rate-based clients, and for the request/response, once+random
// and closed-loop shuffle features alike.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range []string{"mice-heavy", "stride", "random", "bijection", "shuffle"} {
		ws, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		summary := func(seed uint64) string {
			c := testCluster(seed)
			g, err := Compile(ws, c, seed)
			if err != nil {
				t.Fatalf("%s: Compile: %v", name, err)
			}
			out := ""
			g.OnFlowStart = func(f FlowStart) { out += fmt.Sprintf("+%d:%d>%d:%d;", f.At, f.Src, f.Dst, f.Bytes) }
			g.OnFlowDone = func(d FlowDone) { out += fmt.Sprintf("-%d:%d>%d:%d;", d.At, d.Src, d.Dst, d.FCT) }
			g.Start(60 * sim.Millisecond)
			c.Eng.Run(60 * sim.Millisecond)
			for _, conn := range c.Conns() {
				out += fmt.Sprintf("%d>%d=%d;", conn.Src, conn.Dst, conn.Delivered())
			}
			for _, r := range g.Results(c.Eng.Now()) {
				out += fmt.Sprintf("%s:%d/%d/%d/%d/%.6f/%.6f;", r.ID, r.Started, r.Finished, r.Timeouts, r.BytesMoved, r.FCT.Mean(), r.Tput)
			}
			return out
		}
		a, b := summary(42), summary(42)
		if a != b {
			t.Fatalf("%s: same spec+seed diverged:\n%s\n%s", name, a, b)
		}
		if summary(43) == a {
			t.Fatalf("%s: different seeds produced identical traffic", name)
		}
	}
}

// TestCompileSharded pins what runs on a sharded cluster: once +
// unlimited clients start without touching the (absent) single engine
// and measure the same bytes as a serial run; anything that schedules
// arrivals or records completions fails Compile with a field path
// instead of dereferencing a nil engine.
func TestCompileSharded(t *testing.T) {
	pods := func(shards int) *cluster.Cluster {
		return cluster.New(cluster.Config{
			Topology: topo.ThreeTierClos(2, 2, 2, 1, topo.LinkConfig{}),
			Scheme:   cluster.Presto,
			Seed:     3,
			Shards:   shards,
		})
	}
	ws, err := Preset("elephants")
	if err != nil {
		t.Fatal(err)
	}
	var tputs [2][]float64
	for i, shards := range []int{1, 2} {
		c := pods(shards)
		if c.Shards() != shards {
			t.Fatalf("cluster uses %d shards, want %d", c.Shards(), shards)
		}
		g, err := Compile(ws, c, 3)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		g.Start(5 * sim.Millisecond)
		c.Run(2 * sim.Millisecond)
		g.ResetBaseline(c.Now())
		c.Run(5 * sim.Millisecond)
		tputs[i] = g.Throughputs(c.Now())
	}
	if len(tputs[0]) != 4 || fmt.Sprint(tputs[0]) != fmt.Sprint(tputs[1]) {
		t.Fatalf("sharded elephants diverged from serial:\n%v\n%v", tputs[0], tputs[1])
	}

	for _, tc := range []struct{ preset, wantPath string }{
		{"mice-heavy", "clients[0].arrival.process"}, // rate-based
		{"stride", "clients[1].arrival.process"},     // elephants fine, mice rate-based
		{"shuffle", "clients[0].arrival.process"},    // once, but sized
		{"trace", "clients[0].arrival.process"},      // replay
	} {
		ws, err := Preset(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Compile(ws, pods(2), 3)
		if err == nil || !strings.Contains(err.Error(), tc.wantPath) {
			t.Errorf("%s on 2 shards: err = %v, want a %s error", tc.preset, err, tc.wantPath)
		}
	}
}

// TestGeneratorElephants pins the once+unlimited path: throughput and
// fairness come from the elephant tracker.
func TestGeneratorElephants(t *testing.T) {
	ws, err := Preset("elephants")
	if err != nil {
		t.Fatal(err)
	}
	g, c := compileRun(t, ws, 5, 50*sim.Millisecond)
	if tput := g.MeanTput(c.Eng.Now()); tput < 1 {
		t.Fatalf("elephant throughput %.2f Gbps", tput)
	}
	if f := g.Fairness(c.Eng.Now()); f < 0.5 {
		t.Fatalf("fairness %.2f", f)
	}
	if res := g.Results(c.Eng.Now()); res[0].Tput < 1 {
		t.Fatalf("client Tput %.2f", res[0].Tput)
	}
}

// TestGeneratorIncastClamp pins that a 32-way incast spec runs on a
// 4-host fabric with fan-in capped at N-1.
func TestGeneratorIncastClamp(t *testing.T) {
	ws, err := Preset("incast32")
	if err != nil {
		t.Fatal(err)
	}
	g, c := compileRun(t, ws, 9, 100*sim.Millisecond)
	r := g.Results(c.Eng.Now())[0]
	if r.Started == 0 {
		t.Fatal("no incast flows started")
	}
	// Each arrival opens exactly min(32, n-1) = 3 flows.
	if r.Started%3 != 0 {
		t.Fatalf("started %d flows; want a multiple of clamped fan-in 3", r.Started)
	}
}

// TestGeneratorTraceReplay pins trace scheduling: flows start at the
// recorded offsets and looping repeats the pattern.
func TestGeneratorTraceReplay(t *testing.T) {
	ms := func(v int64) Duration { return Duration(v * 1_000_000) }
	ws := &Spec{
		Version: Version,
		Name:    "replay-test",
		Clients: []Client{{
			ID: "replay",
			Trace: &TraceSource{
				Inline: []FlowStart{
					{At: ms(0), Src: 0, Dst: 2, Bytes: 10_000},
					{At: ms(2), Src: 1, Dst: 3, Bytes: 10_000},
					{At: ms(4), Src: 2, Dst: 0, Bytes: 10_000},
				},
			},
		}},
	}
	g, c := compileRun(t, ws, 3, 50*sim.Millisecond)
	r := g.Results(c.Eng.Now())[0]
	if r.Started != 3 {
		t.Fatalf("started %d flows, want 3 (no loop)", r.Started)
	}
	if r.Finished != 3 {
		t.Fatalf("finished %d flows, want 3", r.Finished)
	}

	// Looped, the trace repeats every span until the window closes.
	ws.Clients[0].Trace.Loop = true
	g, c = compileRun(t, ws, 3, 50*sim.Millisecond)
	r = g.Results(c.Eng.Now())[0]
	if r.Started <= 3 {
		t.Fatalf("looped trace started only %d flows", r.Started)
	}
}

// TestGeneratorResetBaseline pins that warmup traffic clears.
func TestGeneratorResetBaseline(t *testing.T) {
	ws := validSpec()
	c := testCluster(21)
	g, err := Compile(ws, c, 21)
	if err != nil {
		t.Fatal(err)
	}
	g.Start(100 * sim.Millisecond)
	c.Eng.Run(50 * sim.Millisecond)
	if g.Results(c.Eng.Now())[0].Started == 0 {
		t.Fatal("no warmup flows")
	}
	g.ResetBaseline(c.Eng.Now())
	if r := g.Results(c.Eng.Now())[0]; r.Started != 0 || r.FCT.N() != 0 {
		t.Fatalf("baseline reset left %d started, %d FCT samples", r.Started, r.FCT.N())
	}
	c.Eng.Run(100 * sim.Millisecond)
	if g.Results(c.Eng.Now())[0].Started == 0 {
		t.Fatal("no flows after baseline reset")
	}
}

// TestCompileTopologyChecks pins Compile's topology-dependent
// validation.
func TestCompileTopologyChecks(t *testing.T) {
	c := testCluster(1)

	ws := validSpec()
	ws.Clients[0].Select = Select{Kind: SelPairs, Pairs: [][2]int{{0, 99}}}
	if _, err := Compile(ws, c, 1); err == nil {
		t.Fatal("out-of-range pair accepted")
	}

	ws = validSpec()
	ws.Clients[0].Select = Select{Kind: SelNorthSouth}
	if _, err := Compile(ws, c, 1); err == nil {
		t.Fatal("northsouth accepted without remotes")
	}

	ws = validSpec()
	ws.Clients[0] = Client{ID: "t", Trace: &TraceSource{
		Inline: []FlowStart{{Src: 0, Dst: 99, Bytes: 10}},
	}}
	if _, err := Compile(ws, c, 1); err == nil {
		t.Fatal("out-of-range trace host accepted")
	}

	ws = validSpec()
	ws.Clients[0] = Client{ID: "t", Trace: &TraceSource{
		Inline: []FlowStart{
			{At: Duration(2 * sim.Millisecond), Src: 0, Dst: 1, Bytes: 10},
			{At: Duration(1 * sim.Millisecond), Src: 0, Dst: 1, Bytes: 10},
		},
	}}
	if _, err := Compile(ws, c, 1); err == nil {
		t.Fatal("out-of-order trace accepted")
	}

	// A stride is taken mod the server count, so one near the int range
	// neither overflows nor panics: it compiles with the pairs of
	// stride mod n, or is refused with a field path when that is 0.
	const huge = math.MaxInt64
	n := serverCount(c)
	for _, k := range []int{huge, huge - 1, huge - 3} {
		ws = validSpec()
		ws.Clients[0] = Client{
			ID:      "s",
			Arrival: Arrival{Process: ProcOnce},
			Size:    SizeDist{Kind: SizeUnlimited},
			Select:  Select{Kind: SelStride, Stride: k},
		}
		g, err := Compile(ws, c, 1)
		if k%n == 0 {
			if err == nil || !strings.Contains(err.Error(), "clients[0].select.stride") {
				t.Errorf("stride %d on %d servers: err = %v, want a clients[0].select.stride error", k, n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("stride %d: %v", k, err)
		}
		want := validSpec()
		want.Clients[0] = ws.Clients[0]
		want.Clients[0].Select.Stride = k % n
		w, err := Compile(want, testCluster(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(g.clients[0].pairs) != fmt.Sprint(w.clients[0].pairs) {
			t.Errorf("stride %d: pairs %v, want stride %d's %v", k, g.clients[0].pairs, k%n, w.clients[0].pairs)
		}
	}
}

// TestGeneratorNorthSouth pins the north-south path against a topology
// with spine-attached remote users.
func TestGeneratorNorthSouth(t *testing.T) {
	tp := topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{})
	for s := 0; s < 2; s++ {
		tp.AddSpineHost(tp.Spines[s], 100e6, 5*sim.Microsecond)
	}
	c := cluster.New(cluster.Config{Topology: tp, Scheme: cluster.Presto, Seed: 2})
	ws := validSpec()
	ws.Clients[0].Select = Select{Kind: SelNorthSouth}
	ws.Clients[0].Size = SizeDist{Kind: SizeFixed, Bytes: 2000}
	g, err := Compile(ws, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Start(100 * sim.Millisecond)
	c.Eng.Run(100 * sim.Millisecond)
	r := g.Results(c.Eng.Now())[0]
	if r.Finished == 0 {
		t.Fatalf("no north-south flows finished: %+v", r)
	}
}

// TestArrivalGapDistributions sanity-checks the gap sampler's mean.
func TestArrivalGapDistributions(t *testing.T) {
	mean := sim.Time(1 * sim.Millisecond)
	t.Run("poisson", func(t *testing.T) {
		rng := sim.NewRNG(99)
		const n = 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(arrivalGap(rng, mean))
		}
		got := sum / n / float64(mean)
		if got < 0.9 || got > 1.1 {
			t.Fatalf("mean gap %.3f× the target", got)
		}
	})
}

// TestSampleSizeBounds pins clamping and the empirical sampler.
func TestSampleSizeBounds(t *testing.T) {
	rng := sim.NewRNG(123)
	d := &SizeDist{Kind: SizePareto, ScaleBytes: 1000, Alpha: 1.1, Min: 2000, Max: 50_000}
	for i := 0; i < 1000; i++ {
		s := sampleSize(d, rng)
		if s < 2000 || s > 50_000 {
			t.Fatalf("sample %d outside [2000, 50000]", s)
		}
	}
	e := &SizeDist{Kind: SizeEmpirical, CDF: []CDFPoint{
		{Bytes: 100, Frac: 0.5}, {Bytes: 1000, Frac: 1},
	}}
	lo, hi := 0, 0
	for i := 0; i < 2000; i++ {
		s := sampleSize(e, rng)
		if s < 100 || s > 1000 {
			t.Fatalf("empirical sample %d outside CDF support", s)
		}
		if s == 100 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("empirical sampler degenerate: lo=%d hi=%d", lo, hi)
	}
}
