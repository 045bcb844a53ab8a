// Package vswitch models the soft edge the paper builds Presto into:
// an Open vSwitch-like datapath on each host that monitors outgoing
// traffic, chops flows into flowcells (Algorithm 1), rewrites
// destination MACs to controller-supplied shadow-MAC labels, and on
// receive restores real MACs and demultiplexes segments to transport
// endpoints.
//
// Load-balancing behaviour is pluggable: Presto round-robin flowcell
// spraying (with weighted multipathing via duplicated labels, §3.3),
// per-flow ECMP path pinning (the paper's ECMP baseline), flowlet
// switching with a configurable inactivity gap (§5), per-packet
// spraying, and Presto+ECMP per-hop hashing (Figure 14).
package vswitch

import (
	"fmt"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// SegmentSender is the layer below the vSwitch (the NIC's TSO entry).
type SegmentSender interface {
	SendSegment(seg *packet.Segment)
}

// Endpoint receives segments destined to a local transport endpoint.
type Endpoint interface {
	DeliverSegment(seg *packet.Segment)
}

// Policy decides each outgoing segment's destination MAC (label) and
// flowcell ID.
type Policy interface {
	Name() string
	// Select stamps seg (DstMAC, FlowcellID) for the given vSwitch.
	Select(vs *VSwitch, seg *packet.Segment)
}

// Stats counts datapath activity.
type Stats struct {
	SegmentsOut uint64
	SegmentsIn  uint64
	MACRewrites uint64 // shadow-MAC stampings (one memcpy each, §5)
	MACRestores uint64 // receive-side label→real rewrites
	Flowcells   uint64 // flowcells emitted (each flow's first + every transition)
}

// VSwitch is one host's edge datapath.
type VSwitch struct {
	Eng  *sim.Engine
	Host packet.HostID

	out    SegmentSender
	policy Policy

	// mappings: destination host → list of shadow MACs, one per
	// spanning tree, pushed by the controller. Duplicated entries
	// realize path weights. An empty list means "use the real MAC"
	// (same-leaf destinations, single-switch topologies).
	mappings map[packet.HostID][]packet.MAC

	// table demultiplexes received segments to local endpoints, keyed
	// by the flow the endpoint *sends* on.
	table map[packet.FlowKey]Endpoint

	// pathCells counts flowcells emitted per path index (position in
	// the label list); sums to Stats.Flowcells.
	pathCells []uint64
	tracer    *telemetry.Tracer

	Stats Stats
}

// New creates a vSwitch for host h with the given policy.
func New(eng *sim.Engine, h packet.HostID, out SegmentSender, policy Policy) *VSwitch {
	return &VSwitch{
		Eng:      eng,
		Host:     h,
		out:      out,
		policy:   policy,
		mappings: make(map[packet.HostID][]packet.MAC),
		table:    make(map[packet.FlowKey]Endpoint),
	}
}

// Policy returns the active load-balancing policy.
func (vs *VSwitch) Policy() Policy { return vs.policy }

// SetTracer attaches a structured event tracer (nil disables tracing,
// the default).
func (vs *VSwitch) SetTracer(tr *telemetry.Tracer) { vs.tracer = tr }

// noteFlowcell records that a new flowcell started on path pathIdx.
// Policies call it for each flow's first flowcell and every
// transition, so per-path counts sum to Stats.Flowcells.
func (vs *VSwitch) noteFlowcell(pathIdx int, cell uint32) {
	vs.Stats.Flowcells++
	if pathIdx >= len(vs.pathCells) {
		grown := make([]uint64, pathIdx+1)
		copy(grown, vs.pathCells)
		vs.pathCells = grown
	}
	vs.pathCells[pathIdx]++
	vs.tracer.FlowcellEmit(vs.Eng.Now(), int32(vs.Host), cell, pathIdx)
}

// PathFlowcells returns the per-path flowcell counts (index = position
// in the controller's label list; index 0 also covers unmapped
// destinations).
func (vs *VSwitch) PathFlowcells() []uint64 {
	return append([]uint64(nil), vs.pathCells...)
}

// TelemetrySnapshot implements a telemetry probe over the datapath
// counters.
func (vs *VSwitch) TelemetrySnapshot() map[string]any {
	perPath := make(map[string]any, len(vs.pathCells))
	for i, n := range vs.pathCells {
		perPath[fmt.Sprintf("%d", i)] = n
	}
	return map[string]any{
		"policy":           vs.policy.Name(),
		"segments_out":     vs.Stats.SegmentsOut,
		"segments_in":      vs.Stats.SegmentsIn,
		"mac_rewrites":     vs.Stats.MACRewrites,
		"mac_restores":     vs.Stats.MACRestores,
		"flowcells":        vs.Stats.Flowcells,
		"path_flowcells":   perPath,
		"registered_flows": uint64(len(vs.table)),
	}
}

// SetSender installs the layer below (the NIC). Used at wiring time
// when the NIC is constructed after the vSwitch.
func (vs *VSwitch) SetSender(out SegmentSender) { vs.out = out }

// SetMapping installs (or replaces) the controller-supplied shadow-MAC
// list for a destination host.
func (vs *VSwitch) SetMapping(dst packet.HostID, macs []packet.MAC) {
	vs.mappings[dst] = macs
}

// Mapping returns the label list for dst (nil if none installed).
func (vs *VSwitch) Mapping(dst packet.HostID) []packet.MAC { return vs.mappings[dst] }

// Register binds a local endpoint to the flow it sends on, so
// segments of the reverse flow reach it.
func (vs *VSwitch) Register(sendFlow packet.FlowKey, ep Endpoint) {
	vs.table[sendFlow] = ep
}

// Registered reports whether a local endpoint is bound to sendFlow.
func (vs *VSwitch) Registered(sendFlow packet.FlowKey) bool {
	_, ok := vs.table[sendFlow]
	return ok
}

// Unregister removes a flow binding.
func (vs *VSwitch) Unregister(sendFlow packet.FlowKey) { delete(vs.table, sendFlow) }

// Send implements tcp.Downstream: the host stack hands a ≤64 KB TSO
// write to the datapath, which stamps it and passes it to the NIC.
func (vs *VSwitch) Send(seg *packet.Segment) {
	seg.SrcMAC = packet.HostMAC(vs.Host)
	vs.policy.Select(vs, seg)
	vs.Stats.SegmentsOut++
	if seg.DstMAC.IsLabel() {
		vs.Stats.MACRewrites++
	}
	vs.out.SendSegment(seg)
}

// DeliverSegment is the receive path: GRO pushes merged segments here;
// the vSwitch conceptually restores the real destination MAC (the one
// memcpy the paper counts) and hands the segment to the owning
// endpoint.
func (vs *VSwitch) DeliverSegment(seg *packet.Segment) {
	vs.Stats.SegmentsIn++
	if seg.DstMAC.IsLabel() {
		seg.DstMAC = packet.HostMAC(vs.Host)
		vs.Stats.MACRestores++
	}
	if ep, ok := vs.table[seg.Flow.Reverse()]; ok {
		ep.DeliverSegment(seg)
	}
}
