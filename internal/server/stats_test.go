package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"presto/internal/campaign"
	"presto/internal/metrics"
)

// statsBuilder returns a two-cell spec where the first cell finishes
// immediately (emitting a "lat" distribution) and the second blocks on
// release — so a follower can observe live percentiles mid-run.
func statsBuilder(release chan struct{}) func(campaign.Request) (*campaign.Spec, error) {
	return func(req campaign.Request) (*campaign.Spec, error) {
		mkCell := func(id string, block bool) campaign.Cell {
			return campaign.Cell{
				Experiment: "stats",
				ID:         "stats/" + id,
				Run: func(seed uint64) (campaign.Result, error) {
					if block {
						<-release
					}
					d := &metrics.Dist{}
					for k := 0; k < 100; k++ {
						d.Add(float64(seed) + float64(k))
					}
					return campaign.Result{
						Metrics: campaign.Values{"v": 1},
						Dists:   map[string]*metrics.Dist{"lat": d},
					}, nil
				},
			}
		}
		return &campaign.Spec{
			Name:        "stats",
			Cells:       []campaign.Cell{mkCell("fast", false), mkCell("slow", true)},
			Parallelism: 1,
		}, nil
	}
}

func TestStatsSingleFrameAfterDone(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec, Workers: 1})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth", Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	var frames []StatsFrame
	err = c.Stats(ctx(t), st.ID, false, 0, func(f StatsFrame) error {
		frames = append(frames, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	f := frames[0]
	if f.State != StateDone || !f.Final {
		t.Fatalf("frame = %+v, want done/final", f)
	}
	// 2 cells × 2 seeds × 4 samples.
	if len(f.Dists) != 1 || f.Dists[0].Name != "lat" || f.Dists[0].N != 16 {
		t.Fatalf("dists = %+v", f.Dists)
	}
	d := f.Dists[0]
	if !(d.P50 <= d.P95 && d.P95 <= d.P99 && d.P99 <= d.P999) {
		t.Fatalf("percentiles not monotone: %+v", d)
	}
	if d.P50 <= 0 {
		t.Fatalf("p50 = %v, want > 0", d.P50)
	}
}

func TestStatsFollowStreamsMidRun(t *testing.T) {
	release := make(chan struct{})
	done := false
	releaseOnce := func() {
		if !done {
			done = true
			close(release)
		}
	}
	defer releaseOnce()
	_, c := newTestServer(t, Config{SpecBuilder: statsBuilder(release)})

	st, err := c.Submit(ctx(t), campaign.Request{})
	if err != nil {
		t.Fatal(err)
	}
	var sawLive, sawFinal bool
	err = c.Stats(ctx(t), st.ID, true, 20*time.Millisecond, func(f StatsFrame) error {
		if !f.Final && f.State == StateRunning && len(f.Dists) > 0 && f.Dists[0].N == 100 {
			// Live mid-run percentiles from the first replica while the
			// second still blocks.
			sawLive = true
			if f.Dists[0].P99 < f.Dists[0].P50 {
				t.Errorf("bad live frame: %+v", f.Dists[0])
			}
			releaseOnce()
		}
		if f.Final {
			sawFinal = true
			if f.State != StateDone || len(f.Dists) != 1 || f.Dists[0].N != 200 {
				t.Errorf("bad final frame: %+v", f)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawLive {
		t.Fatal("never observed a live mid-run stats frame")
	}
	if !sawFinal {
		t.Fatal("stream ended without a final frame")
	}
}

func TestStatsSSE(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequestWithContext(ctx(t), http.MethodGet, c.BaseURL+"/v1/jobs/"+st.ID+"/stats", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if event != "stats" || !strings.Contains(data, `"p99"`) {
		t.Fatalf("SSE frame: event=%q data=%q", event, data)
	}
}

func TestStatsUnknownJobAndBadInterval(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec})
	err := c.Stats(ctx(t), "job-999999", false, 0, func(StatsFrame) error { return nil })
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v", err)
	}
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http().Get(c.BaseURL + "/v1/jobs/" + st.ID + "/stats?interval=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad interval -> %d, want 400", resp.StatusCode)
	}
}

// synthLat is the exact pooled "lat" distribution synthSpec's replicas
// emit for the given seeds.
func synthLat(seeds ...uint64) *metrics.Dist {
	d := &metrics.Dist{}
	for _, base := range []float64{3, 11} {
		for _, seed := range seeds {
			for k := 0; k < 4; k++ {
				d.Add(base + float64(seed) + float64(k))
			}
		}
	}
	return d
}

// TestStatsFramesAreExact checks the final frame's count and
// percentiles equal metrics.Dist over every replica's samples.
func TestStatsFramesAreExact(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth", Seeds: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	var last StatsFrame
	err = c.Stats(ctx(t), st.ID, false, 0, func(f StatsFrame) error {
		last = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := synthLat(1, 2, 3)
	want := DistStats{Name: "lat", N: d.N(), P50: d.Percentile(50), P95: d.Percentile(95), P99: d.Percentile(99), P999: d.Percentile(99.9)}
	if !last.Final || len(last.Dists) != 1 || last.Dists[0] != want {
		t.Fatalf("final frame = %+v, want final with dists [%+v]", last, want)
	}
}

// TestMetricsCarriesQuantileGauges checks the Prometheus endpoint
// exposes exact quantiles pooled over every retained job.
func TestMetricsCarriesQuantileGauges(t *testing.T) {
	_, c := newTestServer(t, Config{SpecBuilder: synthSpec})
	for _, req := range []campaign.Request{
		{Experiments: "synth", Seeds: 2},
		{Experiments: "synth", Seed: 5},
	} {
		st, err := c.Submit(ctx(t), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx(t), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.http().Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	d := synthLat(1, 2, 5)
	for _, want := range []string{
		fmt.Sprintf("presto_stats_lat_p50 %g\n", d.Percentile(50)),
		fmt.Sprintf("presto_stats_lat_p95 %g\n", d.Percentile(95)),
		fmt.Sprintf("presto_stats_lat_p99 %g\n", d.Percentile(99)),
		fmt.Sprintf("presto_stats_lat_p999 %g\n", d.Percentile(99.9)),
		"presto_stats_lat_n 24\n",
		"presto_stats_replicas_observed 6\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// asAPIError unwraps err into *APIError (errors.As without the import
// dance in table helpers).
func asAPIError(err error, out **APIError) bool {
	if e, ok := err.(*APIError); ok {
		*out = e
		return true
	}
	return false
}

// TestFailedReplicaCounted runs a job in which one of four replicas
// fails: the job status, the final stats frame and /metrics each count
// it, ReplicasDone includes it, and only the successful replicas'
// samples are pooled.
func TestFailedReplicaCounted(t *testing.T) {
	builder := func(req campaign.Request) (*campaign.Spec, error) {
		spec, err := synthSpec(req)
		if err != nil {
			return nil, err
		}
		run := spec.Cells[1].Run
		spec.Cells[1].Run = func(seed uint64) (campaign.Result, error) {
			if seed == 2 {
				return campaign.Result{}, fmt.Errorf("replica fails on purpose")
			}
			return run(seed)
		}
		return spec, nil
	}
	_, c := newTestServer(t, Config{SpecBuilder: builder})
	st, err := c.Submit(ctx(t), campaign.Request{Experiments: "synth", Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.ReplicasDone != 4 || final.ReplicasFailed != 1 {
		t.Fatalf("final status = %+v, want done 4/1", final)
	}
	var last StatsFrame
	err = c.Stats(ctx(t), st.ID, false, 0, func(f StatsFrame) error {
		last = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three successful replicas × 4 samples.
	if !last.Final || last.ReplicasDone != 4 || last.ReplicasFailed != 1 || len(last.Dists) != 1 || last.Dists[0].N != 12 {
		t.Fatalf("final frame = %+v, want final 4/1 with 12 samples", last)
	}
	resp, err := c.http().Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"presto_server_replicas_done_total 4\n",
		"presto_server_replicas_failed_total 1\n",
		"presto_stats_replicas_observed 3\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
