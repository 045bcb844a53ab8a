package cluster

import (
	"fmt"

	"presto/internal/fabric"
	"presto/internal/tcp"
	"presto/internal/telemetry"
)

// wireTelemetry attaches the configured registry's tracer to every
// traced component and registers the per-component snapshot probes.
// Called once from New when Config.Telemetry is set; with it unset the
// cluster carries no telemetry state at all.
func (c *Cluster) wireTelemetry() {
	reg := c.cfg.Telemetry
	if reg == nil {
		return
	}
	prefix := reg.BeginRun(string(c.cfg.Scheme))
	tr := reg.Tracer()
	c.Net.SetTracer(tr)
	for _, h := range c.Hosts {
		h.VS.SetTracer(tr)
		h.NIC.SetTracer(tr)
	}

	reg.Register(prefix+"engine", func() map[string]any {
		return map[string]any{
			"now_ns":       int64(c.Eng.Now()),
			"events":       c.Eng.Executed,
			"peak_pending": c.Eng.PeakPending,
		}
	})
	reg.Register(prefix+"fabric", c.Net.TelemetrySnapshot)

	// The monitor only reads data-plane state, so sampling shifts event
	// sequence numbers without changing simulated outcomes (verified by
	// the determinism regression test).
	c.mon = fabric.NewMonitor(c.Net)
	c.mon.Start()
	reg.Register(prefix+"links", c.mon.TelemetrySnapshot)

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

// Monitor returns the fabric link monitor (nil unless telemetry is
// configured).
func (c *Cluster) Monitor() *fabric.Monitor { return c.mon }

// Telemetry returns the cluster's registry (nil when disabled).
func (c *Cluster) Telemetry() *telemetry.Registry { return c.cfg.Telemetry }
