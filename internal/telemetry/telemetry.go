// Package telemetry is the simulator's observability layer: a
// structured event tracer, a registry of per-component snapshot
// probes, and exporters (JSON Lines, Chrome trace-event format, and a
// human-readable summary table).
//
// The entire layer is opt-in and zero-overhead when disabled: every
// component holds a possibly-nil *Tracer, and all Tracer methods are
// nil-receiver-safe no-ops that take only scalar arguments, so the
// disabled path performs no allocations, schedules no events, and
// draws no randomness — a run with telemetry off is bit-identical to
// one with telemetry on (see the determinism regression test).
package telemetry

import (
	"cmp"
	"slices"
	"strings"

	"presto/internal/sim"
)

// Kind identifies the type of a traced event.
type Kind uint8

// The event vocabulary. Each kind documents its A/B scalar arguments.
const (
	// KindFlowcellEmit: the edge vSwitch started a new flowcell.
	// A=flowcell ID, B=path index (position in the label list).
	KindFlowcellEmit Kind = iota
	// KindGROFlush: a GRO handler pushed a data segment up the stack.
	// A=payload bytes, B=packets merged; Reason is the flush cause.
	KindGROFlush
	// KindGROHold: Presto GRO held segments at a flowcell-boundary gap.
	// A=held segments, B=hold deadline (ns).
	KindGROHold
	// KindQueueDrop: a link queue dropped a packet.
	// A=link ID, B=queued bytes at drop; Reason is "tail-drop" or
	// "link-down".
	KindQueueDrop
	// KindRingDrop: a NIC RX ring overflowed (receiver livelock).
	// A=ring occupancy.
	KindRingDrop
	// KindRetransmit: TCP retransmitted. A=sequence number, B=cwnd in
	// bytes; Reason is "fast", "rto", or "probe".
	KindRetransmit
	// KindCwnd: a TCP RTT sample completed. A=cwnd bytes, B=SRTT ns.
	KindCwnd
	// KindLinkDown: a fabric link failed. A=link ID.
	KindLinkDown
	// KindLinkUp: a fabric link was restored. A=link ID.
	KindLinkUp
	// KindFailoverSwitch: a switch rewrote a packet's label to a backup
	// spanning tree. A=dead link ID, B=backup tree index.
	KindFailoverSwitch

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindFlowcellEmit:
		return "FlowcellEmit"
	case KindGROFlush:
		return "GROFlush"
	case KindGROHold:
		return "GROHold"
	case KindQueueDrop:
		return "QueueDrop"
	case KindRingDrop:
		return "RingDrop"
	case KindRetransmit:
		return "Retransmit"
	case KindCwnd:
		return "Cwnd"
	case KindLinkDown:
		return "LinkDown"
	case KindLinkUp:
		return "LinkUp"
	case KindFailoverSwitch:
		return "FailoverSwitch"
	}
	return "Unknown"
}

// argNames returns the JSON field names of the A and B scalars.
func (k Kind) argNames() (a, b string) {
	switch k {
	case KindFlowcellEmit:
		return "flowcell", "path"
	case KindGROFlush:
		return "bytes", "packets"
	case KindGROHold:
		return "held", "deadline_ns"
	case KindQueueDrop:
		return "link", "queued_bytes"
	case KindRingDrop:
		return "ring_len", "b"
	case KindRetransmit:
		return "seq", "cwnd"
	case KindCwnd:
		return "cwnd", "srtt_ns"
	case KindLinkDown, KindLinkUp:
		return "link", "b"
	case KindFailoverSwitch:
		return "link", "tree"
	}
	return "a", "b"
}

// ActorKind classifies the component an event is attributed to.
type ActorKind uint8

// Actor kinds: hosts (NIC/vSwitch/GRO/TCP events), switches, and
// links.
const (
	ActorNone ActorKind = iota
	ActorHost
	ActorSwitch
	ActorLink
)

func (k ActorKind) String() string {
	switch k {
	case ActorHost:
		return "host"
	case ActorSwitch:
		return "switch"
	case ActorLink:
		return "link"
	}
	return "none"
}

// Actor identifies the component an event belongs to. In the Chrome
// trace export each actor becomes one lane (thread) within its run's
// process.
type Actor struct {
	Kind ActorKind
	ID   int32
}

// Host returns the actor for host id.
func Host(id int32) Actor { return Actor{ActorHost, id} }

// Link returns the actor for link id.
func Link(id int32) Actor { return Actor{ActorLink, id} }

// Event is one traced occurrence. A and B are kind-specific scalars
// (see the Kind constants); Reason is a kind-specific label and must
// be a static string on hot paths.
type Event struct {
	At     sim.Time
	Run    int32
	Kind   Kind
	Actor  Actor
	A, B   int64
	Reason string
}

// DefaultEventLimit caps a Tracer's buffered events; past it, events
// are counted as dropped rather than buffered (an OOM guard for long
// traced runs).
const DefaultEventLimit = 1 << 21

// Tracer buffers structured events for one or more runs. The nil
// *Tracer is the disabled state: every method on it is a no-op, and
// the emit path performs zero allocations (guaranteed by a
// testing.AllocsPerRun regression test).
//
// Components never share a buffer: each engine shard emits into its
// own (NewShard), and Collect, run at every window barrier and before
// any read, moves those events into the run's tracer. Readers see one
// canonical order, a sort by (run, at, actor, kind, a, b, reason) done
// when they read, never per emit, so no output depends on the shard
// count. Memory is bounded: the tracer keeps the first
// DefaultEventLimit events in that order and counts the rest in
// Dropped; between barriers a shard buffers at most the room left.
// A Tracer is not safe for concurrent use.
type Tracer struct {
	limit   int
	events  []Event
	dropped uint64
	run     int32
	labels  []string // one per run, index = run ID
	shards  []*Tracer
	// edge is the latest event collected from the shards: a shard's own
	// events start at its nanosecond.
	edge Event
}

// NewTracer returns an enabled tracer with the default event limit.
func NewTracer() *Tracer {
	return &Tracer{limit: DefaultEventLimit, labels: []string{"run0"}}
}

// BeginRun marks the start of a new run scope (one simulation engine's
// lifetime); subsequent events are stamped with its ID, and the
// previous run's shard buffers are collected and let go. Run 0 exists
// implicitly. It returns the new run's ID.
func (t *Tracer) BeginRun(label string) int32 {
	if t == nil {
		return 0
	}
	t.endRun()
	if len(t.labels) == 1 && t.events == nil && t.labels[0] == "run0" {
		// First BeginRun names the implicit run 0 instead of opening a
		// second scope.
		t.labels[0] = label
		return 0
	}
	t.run = int32(len(t.labels))
	t.labels = append(t.labels, label)
	return t.run
}

// endRun collects the current run's shard buffers and lets them go.
func (t *Tracer) endRun() {
	if t != nil {
		t.Collect()
		t.shards = nil
	}
}

// NewShard returns an empty buffer for the current run's events on one
// engine shard, which Collect empties into t. On a nil tracer it
// returns nil, the disabled buffer.
func (t *Tracer) NewShard() *Tracer {
	if t == nil {
		return nil
	}
	t.Collect()
	s := &Tracer{limit: t.limit - len(t.events), run: t.run, edge: t.edge}
	t.shards = append(t.shards, s)
	return s
}

// Collect moves the events of t's shard buffers into t and, past the
// limit, keeps the first limit events in canonical order. A sharded
// cluster runs it at every window barrier, when no shard emits.
func (t *Tracer) Collect() {
	if t == nil {
		return
	}
	for _, s := range t.shards {
		if n := len(s.events); n > 0 {
			if compareEvents(s.events[n-1], t.edge) > 0 {
				t.edge = s.events[n-1]
			}
			if len(t.events) == 0 {
				// One emitting shard (a serial run) hands its buffer over.
				t.events, s.events = s.events, t.events[:0]
			} else {
				t.events = append(t.events, s.events...)
				s.events = s.events[:0]
			}
		}
		t.dropped += s.dropped
		s.dropped = 0
	}
	if len(t.events) > t.limit {
		slices.SortFunc(t.events, compareEvents)
		t.dropped += uint64(len(t.events) - t.limit)
		t.events = t.events[:t.limit]
	}
	for _, s := range t.shards {
		s.limit, s.edge = t.limit-len(t.events), t.edge
	}
}

// compareEvents is the canonical order. Events equal under it are
// identical.
func compareEvents(x, y Event) int {
	return cmp.Or(cmp.Compare(x.Run, y.Run), cmp.Compare(x.At, y.At),
		cmp.Compare(x.Actor.Kind, y.Actor.Kind), cmp.Compare(x.Actor.ID, y.Actor.ID),
		cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B),
		strings.Compare(x.Reason, y.Reason))
}

// Events returns the kept events in canonical order. It is the live
// slice; callers must not modify it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.Collect()
	slices.SortFunc(t.events, compareEvents)
	return t.events
}

// Dropped returns the number of events discarded past the limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.Collect()
	return t.dropped
}

// RunLabel returns the label of run id ("" if unknown).
func (t *Tracer) RunLabel(id int32) string {
	if t == nil || int(id) >= len(t.labels) || id < 0 {
		return ""
	}
	return t.labels[id]
}

// Emit records one event. This is the single low-level entry point all
// typed helpers funnel through; on a nil tracer it returns
// immediately. A buffer's events arrive in time order (an engine's
// clock never goes back), so at the limit only an event in the
// nanosecond of the latest one may still sort before a kept event and
// is buffered until a sort settles it; any other is counted.
//
//prestolint:noalloc
func (t *Tracer) Emit(at sim.Time, k Kind, actor Actor, a, b int64, reason string) {
	if t == nil {
		return
	}
	if len(t.events) >= t.limit {
		last := t.edge
		if n := len(t.events); n > 0 {
			last = t.events[n-1]
		}
		if last.Run != t.run || last.At != at {
			t.dropped++
			return
		}
	}
	//prestolint:allow hotalloc -- the buffer grows to its limit (plus one nanosecond's ties) once; past it Emit only counts the drop (TestTracerDropEmitAllocs pins 0 allocs)
	t.events = append(t.events, Event{At: at, Run: t.run, Kind: k, Actor: actor, A: a, B: b, Reason: reason})
}

// FlowcellEmit records a new flowcell starting on path pathIdx.
func (t *Tracer) FlowcellEmit(at sim.Time, host int32, cell uint32, pathIdx int) {
	t.Emit(at, KindFlowcellEmit, Actor{ActorHost, host}, int64(cell), int64(pathIdx), "")
}

// GROFlush records a data segment pushed up the stack with the reason
// it was flushed.
func (t *Tracer) GROFlush(at sim.Time, host int32, bytes, packets int, reason string) {
	t.Emit(at, KindGROFlush, Actor{ActorHost, host}, int64(bytes), int64(packets), reason)
}

// GROHold records segments held at a flowcell-boundary gap.
func (t *Tracer) GROHold(at sim.Time, host int32, held int, deadline sim.Time) {
	t.Emit(at, KindGROHold, Actor{ActorHost, host}, int64(held), int64(deadline), "")
}

// QueueDrop records a link-queue packet drop.
func (t *Tracer) QueueDrop(at sim.Time, link int32, queuedBytes int, reason string) {
	t.Emit(at, KindQueueDrop, Actor{ActorLink, link}, int64(link), int64(queuedBytes), reason)
}

// RingDrop records a NIC RX-ring overflow drop.
func (t *Tracer) RingDrop(at sim.Time, host int32, ringLen int) {
	t.Emit(at, KindRingDrop, Actor{ActorHost, host}, int64(ringLen), 0, "")
}

// Retransmit records a TCP retransmission.
func (t *Tracer) Retransmit(at sim.Time, host int32, seq uint32, cwnd int64, reason string) {
	t.Emit(at, KindRetransmit, Actor{ActorHost, host}, int64(seq), cwnd, reason)
}

// Cwnd records a congestion-window sample at an RTT measurement.
func (t *Tracer) Cwnd(at sim.Time, host int32, cwnd int64, srtt sim.Time) {
	t.Emit(at, KindCwnd, Actor{ActorHost, host}, cwnd, int64(srtt), "")
}

// LinkDown records a link failure.
func (t *Tracer) LinkDown(at sim.Time, link int32) {
	t.Emit(at, KindLinkDown, Actor{ActorLink, link}, int64(link), 0, "")
}

// LinkUp records a link restoration.
func (t *Tracer) LinkUp(at sim.Time, link int32) {
	t.Emit(at, KindLinkUp, Actor{ActorLink, link}, int64(link), 0, "")
}

// FailoverSwitch records a fast-failover label rewrite to a backup
// tree at a switch.
func (t *Tracer) FailoverSwitch(at sim.Time, node int32, deadLink int32, tree int) {
	t.Emit(at, KindFailoverSwitch, Actor{ActorSwitch, node}, int64(deadLink), int64(tree), "backup-tree")
}

// CountKind returns the number of kept events of kind k.
func (t *Tracer) CountKind(k Kind) int {
	if t == nil {
		return 0
	}
	t.Collect()
	n := 0
	for i := range t.events {
		if t.events[i].Kind == k {
			n++
		}
	}
	return n
}
