package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"presto/internal/metrics"
)

// DistStats is one distribution's exact live tail summary.
type DistStats struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// StatsFrame is one frame of a job's live-percentile stream (GET
// /v1/jobs/{id}/stats): the job's progress plus p50/p95/p99/p999 of
// every distribution observed so far, exact over the samples of the
// replicas finished so far — available mid-run, long before
// report.json exists. The closing frame of a followed stream has
// Final set.
type StatsFrame struct {
	Job            string      `json:"job"`
	State          State       `json:"state"`
	ReplicasDone   int         `json:"replicas_done"`
	ReplicasFailed int         `json:"replicas_failed"`
	Final          bool        `json:"final,omitempty"`
	Dists          []DistStats `json:"dists"`
}

// statsFrame snapshots the job's live percentiles.
func (j *job) statsFrame(final bool) StatsFrame {
	done, failed := j.stats.Replicas()
	pooled := make(map[string]*metrics.Dist)
	j.stats.MergeInto(pooled)
	return StatsFrame{
		Job:            j.id,
		State:          j.stateNow(),
		ReplicasDone:   done,
		ReplicasFailed: failed,
		Final:          final,
		Dists:          distStats(pooled),
	}
}

// distStats summarises each pooled distribution, sorted by name.
func distStats(pooled map[string]*metrics.Dist) []DistStats {
	out := make([]DistStats, 0, len(pooled))
	for name, d := range pooled {
		out = append(out, DistStats{
			Name: name,
			N:    d.N(),
			P50:  d.Percentile(50),
			P95:  d.Percentile(95),
			P99:  d.Percentile(99),
			P999: d.Percentile(99.9),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// handleStats serves GET /v1/jobs/{id}/stats: one frame of live
// percentiles, or — with ?follow=1 — a stream of frames every
// ?interval (default 500ms, floor 20ms) until the job reaches a
// terminal state, closing with a Final frame. NDJSON by default, SSE
// with Accept: text/event-stream.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	q := r.URL.Query()
	follow := q.Get("follow") != "" && q.Get("follow") != "0" && q.Get("follow") != "false"
	interval := 500 * time.Millisecond
	if v := q.Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad interval=%q", v)
			return
		}
		if d < 20*time.Millisecond {
			d = 20 * time.Millisecond
		}
		interval = d
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	emit := func(f StatsFrame) error {
		if sse {
			data, err := json.Marshal(f)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "event: stats\ndata: %s\n\n", data); err != nil {
				return err
			}
		} else if err := enc.Encode(f); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	terminal := frameIsFinal(j)
	if err := emit(j.statsFrame(terminal)); err != nil || !follow || terminal {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
		terminal := frameIsFinal(j)
		if err := emit(j.statsFrame(terminal)); err != nil || terminal {
			return
		}
	}
}

// frameIsFinal reports whether the job has reached a terminal state —
// the frame emitted now reflects every replica that will ever run.
func frameIsFinal(j *job) bool { return j.stateNow().Terminal() }

// statsProbe pools the live samples of every retained job into one
// exact gauge set per distribution name — the "stats" component of the
// server registry, surfacing presto_stats_<dist>_p99-style gauges on
// /metrics.
func (s *Server) statsProbe() map[string]any {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	pooled := make(map[string]*metrics.Dist)
	var replicas int
	for _, j := range jobs {
		done, failed := j.stats.Replicas()
		replicas += done - failed
		j.stats.MergeInto(pooled)
	}
	m := map[string]any{"replicas_observed": replicas}
	for _, d := range distStats(pooled) {
		m[d.Name+".n"] = d.N
		m[d.Name+".p50"] = d.P50
		m[d.Name+".p95"] = d.P95
		m[d.Name+".p99"] = d.P99
		m[d.Name+".p999"] = d.P999
	}
	return m
}
