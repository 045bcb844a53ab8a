package fabric

import "presto/internal/sim"

// LinkSample is one point in a monitored link-direction time series.
type LinkSample struct {
	At          sim.Time `json:"at_ns"`
	QueuedBytes int      `json:"queued_bytes"`
	// Utilization is the fraction of the link's capacity used over the
	// interval ending at At.
	Utilization float64 `json:"utilization"`
}

// Monitor samples per-link queue depth and interval utilization on a
// fixed period. It only reads data-plane state, so enabling it shifts
// engine sequence numbers without changing any simulated outcome; it
// is started only when telemetry is requested.
type Monitor struct {
	net *Network
	eng *sim.Engine // the fabric's control engine (shard 0)

	// Per pipe, indexed like Network.pipes.
	lastTx    []uint64
	series    [][]LinkSample
	truncated bool
	started   bool
}

// DefaultMonitorInterval spaces samples widely enough that multi-second
// runs stay within the default cap.
const DefaultMonitorInterval = 100 * sim.Microsecond

// DefaultMonitorSamples caps each link-direction series.
const DefaultMonitorSamples = 4096

// NewMonitor creates a monitor over n, sampling every
// DefaultMonitorInterval up to DefaultMonitorSamples per series.
func NewMonitor(n *Network) *Monitor {
	return &Monitor{
		net:    n,
		eng:    n.group.Shard(0),
		lastTx: make([]uint64, len(n.pipes)),
		series: make([][]LinkSample, len(n.pipes)),
	}
}

// Start schedules the sampling loop. Safe to call once per monitor.
func (m *Monitor) Start() {
	if m == nil || m.started {
		return
	}
	m.started = true
	for k, p := range m.net.pipes {
		m.lastTx[k] = p.TxBytes
	}
	m.eng.Schedule(DefaultMonitorInterval, m.tick)
}

func (m *Monitor) tick() {
	now := m.eng.Now()
	for k, p := range m.net.pipes {
		s := m.series[k]
		if len(s) >= DefaultMonitorSamples {
			m.truncated = true
			continue
		}
		sent := p.TxBytes - m.lastTx[k]
		m.lastTx[k] = p.TxBytes
		capBits := DefaultMonitorInterval.Seconds() * float64(p.link.BitsPerSec)
		util := 0.0
		if capBits > 0 {
			util = float64(sent*8) / capBits
		}
		m.series[k] = append(s, LinkSample{At: now, QueuedBytes: p.QueuedBytes(), Utilization: util})
	}
	m.eng.Schedule(DefaultMonitorInterval, m.tick)
}

// Series returns the samples for one link direction (nil if none).
func (m *Monitor) Series(link int, from int) []LinkSample {
	if m == nil {
		return nil
	}
	for k, p := range m.net.pipes {
		if int(p.link.ID) == link && int(p.from) == from {
			return m.series[k]
		}
	}
	return nil
}

// TelemetrySnapshot summarizes each monitored series: sample count,
// queue-depth watermark seen by the sampler, and peak/mean interval
// utilization. Raw series stay in memory (see Series) rather than
// bloating every snapshot.
func (m *Monitor) TelemetrySnapshot() map[string]any {
	out := make(map[string]any, len(m.series)+2)
	for k, s := range m.series {
		if len(s) == 0 {
			continue
		}
		maxQ, peakU, sumU := 0, 0.0, 0.0
		for _, pt := range s {
			if pt.QueuedBytes > maxQ {
				maxQ = pt.QueuedBytes
			}
			if pt.Utilization > peakU {
				peakU = pt.Utilization
			}
			sumU += pt.Utilization
		}
		out[m.net.pipes[k].name()] = map[string]any{
			"samples":          len(s),
			"max_queued_bytes": maxQ,
			"peak_utilization": peakU,
			"mean_utilization": sumU / float64(len(s)),
		}
	}
	out["interval_ns"] = int64(DefaultMonitorInterval)
	out["truncated"] = m.truncated
	return out
}
