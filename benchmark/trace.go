package main

import (
	"fmt"
	"runtime"
	"time"

	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/sim"
)

// span is one timed interval recorded by the harness around its own
// calls into the simulator. Spans of one run share the workload name
// as their identifier; Parent indexes the enclosing span (-1 for the
// root). Counts carries the counters read at the span's end.
type span struct {
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Parent   int                `json:"parent"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps a run's spans in memory; the parent writes them out
// when the benchmark ends. A nil tracer records nothing, so untraced
// runs pay only a nil check.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indices of the spans currently open, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span nested in the innermost open one and returns the
// function that closes it, attaching counts (nil for none).
func (t *tracer) begin(name string) func(counts map[string]float64) {
	if t == nil {
		return func(map[string]float64) {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, i)
	return func(counts map[string]float64) {
		t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
		t.spans[i].Counts = counts
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) done() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

// windowSlices is how many equal slices the measured window is cut
// into; in a traced run the last slice's cost over the first's is the
// drift a workload's growing state causes. Each slice is paced.
const windowSlices = 10

// paceSteps is how many Run calls a paced stretch of simulated time is
// cut into.
const paceSteps = 10

// pace runs the cluster from simulated time from to until in paceSteps
// equal Run calls with a calibration chunk after each (the caller times
// the one before the first), so that the machine's speed is sampled
// every few tens of milliseconds of the phase being timed. It returns
// the summed host time of the Run calls, and chunks with the chunk
// times appended.
func pace(c *cluster.Cluster, cal *calibrator, from, until sim.Time, chunks []time.Duration) (time.Duration, []time.Duration) {
	var total time.Duration
	for i := sim.Time(1); i <= paceSteps; i++ {
		t := time.Now()
		c.Run(from + (until-from)*i/paceSteps)
		total += time.Since(t)
		chunks = append(chunks, cal.chunk())
	}
	return total, chunks
}

// runSliced runs the measured window as windowSlices paced slices and
// returns the summed host time of the Run calls, the time spent in
// calibration chunks between them, and the machine's slowdown over the
// window. A traced run (tr != nil) also records per
// slice a span with the host time, events executed, events pending and
// heap in use, and reports the slice metrics at the reference speed.
func runSliced(c *cluster.Cluster, w workload, tr *tracer, cal *calibrator, host map[string]float64) (total, calib time.Duration, slow float64) {
	var nsPerEvent [windowSlices]float64
	var pendingSum float64
	var ms runtime.MemStats
	chunks := []time.Duration{cal.chunk()}
	for i := 0; i < windowSlices; i++ {
		from := w.Warmup + w.Window*sim.Time(i)/windowSlices
		until := w.Warmup + w.Window*sim.Time(i+1)/windowSlices
		events := c.Executed()
		end := tr.begin(fmt.Sprintf("slice.%d", i))
		var d time.Duration
		d, chunks = pace(c, cal, from, until, chunks)
		total += d
		if tr != nil {
			events = c.Executed() - events
			runtime.ReadMemStats(&ms)
			pending := float64(pendingEvents(c))
			end(map[string]float64{
				"wall_ns":       float64(d.Nanoseconds()),
				"events":        float64(events),
				"pending":       pending,
				"heap_inuse_mb": float64(ms.HeapInuse) / (1 << 20),
			})
			nsPerEvent[i] = float64(d.Nanoseconds()) / float64(events)
			pendingSum += pending
		}
	}
	for _, d := range chunks {
		calib += d
	}
	slow = slowdown(chunks)
	if tr != nil {
		host["sim.slice_first_ns_per_event"] = nsPerEvent[0] / slow
		host["sim.slice_last_ns_per_event"] = nsPerEvent[windowSlices-1] / slow
		host["sim.slice_drift"] = nsPerEvent[windowSlices-1] / nsPerEvent[0]
		host["sim.pending_mean"] = pendingSum / windowSlices
	}
	return total, calib, slow
}

// peakPending returns the engines' event-queue high-water mark (summed
// over shard engines).
func peakPending(c *cluster.Cluster) float64 {
	if g := c.Group(); g != nil {
		n := 0
		for i := 0; i < g.Shards(); i++ {
			n += g.Shard(i).PeakPending
		}
		return float64(n)
	}
	return float64(c.Eng.PeakPending)
}

// captureCap bounds the packets the traced run keeps for replay.
const captureCap = 262144

// arrival is one captured packet (a private clone) and when it reached
// the tapped host.
type arrival struct {
	at sim.Time
	p  *packet.Packet
}

// capture collects the tapped host's arrivals while on is set. The tap
// runs on the host's own engine, and on is only flipped between Run
// calls, so the sharded engine needs no extra synchronisation.
type capture struct {
	on   bool
	pkts []arrival
}

// tapHost starts capturing clones of every packet delivered to host h.
func tapHost(c *cluster.Cluster, h packet.HostID) *capture {
	cp := &capture{}
	c.TapHost(h, func(at sim.Time, p *packet.Packet) {
		if cp.on && len(cp.pkts) < captureCap {
			cp.pkts = append(cp.pkts, arrival{at: at, p: p.Clone()})
		}
	})
	return cp
}
