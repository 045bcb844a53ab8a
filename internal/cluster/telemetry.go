package cluster

import (
	"fmt"

	"presto/internal/tcp"
)

// wireTelemetry attaches the configured registry's tracer to every
// traced component and registers the per-component snapshot probes.
// Called once from New when Config.Telemetry is set; with it unset the
// cluster carries no telemetry state at all. Every component emits
// into the trace buffer of the shard it runs on, and no probe
// schedules anything, so a traced run executes the events of an
// untraced one at any shard count.
func (c *Cluster) wireTelemetry() {
	reg := c.cfg.Telemetry
	if reg == nil {
		return
	}
	prefix := reg.BeginRun(c.def.Name)
	c.Net.SetTracer(reg.Tracer())
	for _, h := range c.Hosts {
		h.VS.SetTracer(c.Net.Tracer(h.ID))
		h.NIC.SetTracer(c.Net.Tracer(h.ID))
	}

	reg.Register(prefix+"engine", func() map[string]any {
		peak := 0
		for i := range c.Shards() {
			peak = max(peak, c.group.Shard(i).PeakPending)
		}
		return map[string]any{
			"now_ns":       int64(c.Now()),
			"events":       c.Executed(),
			"peak_pending": peak,
		}
	})
	reg.Register(prefix+"fabric", c.Net.TelemetrySnapshot)

	for _, h := range c.Hosts {
		h := h
		reg.Register(fmt.Sprintf("%shost%d/vswitch", prefix, h.ID), h.VS.TelemetrySnapshot)
		reg.Register(fmt.Sprintf("%shost%d/nic", prefix, h.ID), h.NIC.TelemetrySnapshot)
	}

	reg.Register(prefix+"tcp", func() map[string]any {
		var sent, acked, retrans, timeouts, probes, dupacks, ooo uint64
		eps := 0
		for _, conn := range c.conns {
			for _, side := range [][]*tcp.Endpoint{conn.fwd, conn.rev} {
				for _, e := range side {
					eps++
					sent += e.Stats.BytesSent
					acked += e.Stats.BytesAcked
					retrans += e.Stats.Retransmits
					timeouts += e.Stats.Timeouts
					probes += e.Stats.Probes
					dupacks += e.Stats.DupAcks
					ooo += e.Stats.OOOSegments
				}
			}
		}
		return map[string]any{
			"endpoints":    eps,
			"bytes_sent":   sent,
			"bytes_acked":  acked,
			"retransmits":  retrans,
			"timeouts":     timeouts,
			"probes":       probes,
			"dup_acks":     dupacks,
			"ooo_segments": ooo,
		}
	})
}
