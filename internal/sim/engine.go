// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution. It is the substrate every other package in
// this repository runs on: links, switches, NICs, GRO timers, and TCP
// retransmission timers are all events scheduled on a single Engine.
//
// Determinism: events that fire at the same instant are executed in the
// order they were scheduled (FIFO tie-break on a monotonically increasing
// sequence number), and all randomness must come from an RNG derived from
// the engine's seed. Two runs with the same seed produce identical
// results.
//
// Performance: the hot path (Schedule → dispatch) is allocation-free in
// steady state. Events live in a pooled arena (a slice of slots recycled
// through a free list) and are ordered by an intrusive 4-ary min-heap
// whose cells carry the (at, seq) key inline next to the slot index, so
// scheduling neither boxes values into interfaces nor touches the
// garbage collector, and the sift loops compare contiguous memory and
// touch the arena only to write pos. Arena invariants, for future
// editors:
//
//   - A slot is in exactly one of two states: queued (pos >= 0, index
//     into heap) or free (on the free list, pos == -1, callback zero).
//   - The key lives in the heap cell only; whoever changes a queued
//     event's key (rekey) writes heap[pos], not the slot.
//   - EventID carries the slot's generation at allocation time. Every
//     release increments the generation, so a stale EventID — one whose
//     event fired, was canceled, or whose slot was reused — can never
//     cancel or observe the slot's next occupant.
//   - The slot is released *before* its callback runs: from inside a
//     callback, the firing event's own EventID is already dead, and a
//     Schedule there may legitimately reuse the slot.
//   - The callback is cleared on release so the arena never pins dead
//     closures or arguments.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// callback is what an event runs: fn(), or — the argument-carrying
// form behind ShardGroup.SendArg — afn(arg) when fn is nil. A component
// binds afn once and passes the per-event datum in arg, so a per-packet
// event needs no closure; a pointer in arg does not allocate.
type callback struct {
	fn  func()
	afn func(any)
	arg any
}

func (c callback) call() {
	if c.fn != nil {
		c.fn()
		return
	}
	c.afn(c.arg)
}

// eventSlot is one arena cell. See the package comment for the state
// machine and generation rules.
type eventSlot struct {
	gen uint64 // bumped on every release; EventIDs must match to act
	cb  callback

	pos  int32 // index in Engine.heap, or -1 when free
	next int32 // next free slot while on the free list
}

// heapCell is one heap entry: the event's key inline, and the arena
// slot holding the rest of it.
type heapCell struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot int32
}

// before reports whether c fires strictly before d.
func (c *heapCell) before(d *heapCell) bool {
	return c.at < d.at || (c.at == d.at && c.seq < d.seq)
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid and safe to Cancel (a no-op). IDs are generation-
// counted: once the event fires or is canceled, the ID is dead even if
// its arena slot is reused by a later Schedule.
type EventID struct {
	slot int32
	gen  uint64
}

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	arena []eventSlot
	free  int32      // head of the free-slot list, -1 when empty
	heap  []heapCell // 4-ary min-heap ordered by (at, seq)
	// sh is non-nil when the engine is one shard of a multi-shard
	// ShardGroup; it redirects sequence-number draws to the group so the
	// global schedule order stays bit-identical to a serial run. See
	// shard.go.
	sh      *shard
	running bool
	// stopped is written by Stop — which may run on another goroutine
	// (prestod job cancel, a Stop-watching test) — and read by the run
	// loop, so it must be atomic.
	stopped atomic.Bool

	// Executed counts events that have run, as a cheap progress/liveness
	// measure for tests and benchmarks.
	Executed uint64
	// PeakPending is the high-water mark of the event queue — the
	// engine's peak heap depth, exposed as a telemetry probe.
	PeakPending int
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// alloc takes a slot off the free list, growing the arena when empty.
//
//prestolint:noalloc
func (e *Engine) alloc() int32 {
	if i := e.free; i >= 0 {
		e.free = e.arena[i].next
		return i
	}
	//prestolint:allow hotalloc -- arena high-water growth is amortized; steady state reuses the free list (TestEngineScheduleDispatchAllocs pins 0 allocs)
	e.arena = append(e.arena, eventSlot{gen: 1, pos: -1, next: -1})
	return int32(len(e.arena) - 1)
}

// release retires a slot: kill its generation, drop the callback, and
// push it onto the free list.
//
//prestolint:noalloc
func (e *Engine) release(i int32) {
	s := &e.arena[i]
	s.gen++
	s.cb = callback{}
	s.pos = -1
	s.next = e.free
	e.free = i
}

// Schedule runs fn after delay. A negative delay is treated as zero
// (the event fires at the current instant, after already-queued events
// for that instant).
//
//prestolint:noalloc
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t. If t is in the past, the event
// fires at the current instant.
//
//prestolint:noalloc
func (e *Engine) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	return e.at(t, callback{fn: fn})
}

// at is the one schedule path, behind At and the group's sends: draw
// the sequence number, enqueue, and journal the call when a window is
// open.
//
//prestolint:noalloc
func (e *Engine) at(t Time, cb callback) EventID {
	if t < e.now {
		t = e.now
	}
	var sq uint64
	if e.sh == nil {
		e.seq++
		sq = e.seq
	} else {
		sq = e.sh.nextSeq()
	}
	i := e.insertKeyed(t, sq, cb)
	id := EventID{slot: i, gen: e.arena[i].gen}
	if e.sh != nil {
		e.sh.noteLocal(t, id)
	}
	return id
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired, was already canceled, or is the zero EventID is a no-op.
// It reports whether the event was actually canceled.
//
//prestolint:noalloc
func (e *Engine) Cancel(id EventID) bool {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return false
	}
	s := &e.arena[id.slot]
	if s.gen != id.gen || s.pos < 0 {
		return false
	}
	e.heapRemove(s.pos)
	e.release(id.slot)
	return true
}

// Armed reports whether id identifies an event that is still queued:
// not yet fired, not canceled. The generation check makes this safe to
// ask about long-dead IDs even after their arena slot was reused.
func (e *Engine) Armed(id EventID) bool {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return false
	}
	s := &e.arena[id.slot]
	return s.gen == id.gen && s.pos >= 0
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.heap) }

// Stop makes the in-progress Run/RunAll return after the currently
// executing event completes. Safe to call from inside an event
// callback, and — because the flag is atomic — from another goroutine
// (prestod's job-cancel path stops an engine mid-run). Calling Stop
// while no run is in progress makes the next Run/RunAll return
// immediately (executing nothing); the pending stop is consumed by
// that run. On a shard-owned engine the stop takes effect at the next
// window barrier (see ShardGroup).
func (e *Engine) Stop() { e.stopped.Store(true) }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the clock would pass until. Events scheduled exactly at
// until still run. It returns the time of the last executed event (or
// the current time if nothing ran).
func (e *Engine) Run(until Time) Time {
	stopped := e.run(until)
	if e.now < until && !stopped {
		// Advance the clock to the horizon even when later events remain
		// queued: Run(until) means "simulate up to until", so callers
		// measuring elapsed time get the full window regardless of when
		// the last event before the horizon happened to fire. (This also
		// keeps Now() independent of read-only instrumentation events —
		// the telemetry determinism guarantee.)
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called, and
// returns the time of the last executed event. Unlike Run, it does not
// advance the clock past the last event.
func (e *Engine) RunAll() Time {
	const forever = Time(1<<62 - 1)
	e.run(forever)
	return e.now
}

//prestolint:noalloc
func (e *Engine) run(until Time) (stopped bool) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if e.sh != nil {
		panic("sim: Run on a shard-owned engine; drive it through ShardGroup.Run")
	}
	e.running = true
	// The stop flag is consumed on exit, whether it was raised mid-run
	// or before the run started (a pre-run Stop makes this run a no-op).
	//prestolint:allow hotalloc -- receiver-only capture in an open-coded defer; the compiler keeps it off the heap (TestEngineScheduleDispatchAllocs pins 0 allocs)
	defer func() { e.running = false; e.stopped.Store(false) }()

	for len(e.heap) > 0 && !e.stopped.Load() {
		top := e.heap[0]
		if top.at > until {
			break
		}
		cb := e.arena[top.slot].cb
		e.now = top.at
		e.heapPopMin()
		// Release before dispatch: the firing event's ID is dead from
		// inside its own callback, and the slot may be reused there.
		e.release(top.slot)
		e.Executed++
		cb.call()
	}
	return e.stopped.Load()
}

// runWindow executes queued events with at strictly below limit. It is
// the per-shard inner loop of a ShardGroup window: the coordinator has
// already proven (via the lookahead bound) that no other shard can
// inject an event below limit, so everything under it is safe to fire.
// Unlike run, it never consumes the stop flag — a Stop raised by a
// callback is observed by the coordinator at the window barrier, so
// the whole group stops on a window boundary and the executed-event
// prefix stays identical to a serial run.
func (e *Engine) runWindow(limit Time) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if top.at >= limit {
			break
		}
		cb := e.arena[top.slot].cb
		e.now = top.at
		e.heapPopMin()
		e.release(top.slot)
		e.Executed++
		k0 := e.sh.k
		cb.call()
		if e.sh.k > k0 {
			// Journal only events that scheduled something: the barrier
			// merge replays schedule calls, not executions.
			e.sh.execLog = append(e.sh.execLog, execRec{at: top.at, seq: top.seq, nCalls: e.sh.k - k0})
		}
	}
}

// peekAt returns the timestamp of the earliest queued event.
func (e *Engine) peekAt() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// rekey rewrites a queued event's sequence number from its provisional
// window-local value to the true global one resolved at the barrier.
// Rekeying never reorders the heap: within one window a shard's
// provisional order equals its true relative order, and every true seq
// assigned at the barrier exceeds every seq issued before the window —
// so all comparator outcomes are preserved and the field can be
// overwritten in place. The key lives in the heap cell, so that is what
// is rewritten, found through the slot's pos. A dead ID (fired or
// canceled inside the window) is a no-op, exactly like Cancel.
func (e *Engine) rekey(id EventID, seq uint64) {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return
	}
	s := &e.arena[id.slot]
	if s.gen != id.gen || s.pos < 0 {
		return
	}
	e.heap[s.pos].seq = seq
}

// insertKeyed enqueues an event with an explicit (at, seq) key and
// returns its slot — the tail of every schedule call, and the barrier's
// path for landing a cross-shard handoff with the global sequence
// number it was assigned in the merge.
//
//prestolint:noalloc
func (e *Engine) insertKeyed(at Time, seq uint64, cb callback) int32 {
	i := e.alloc()
	e.arena[i].cb = cb
	//prestolint:allow hotalloc -- heap high-water growth is amortized; the backing array is reused once at steady size
	e.heap = append(e.heap, heapCell{at: at, seq: seq, slot: i})
	e.siftUp(len(e.heap) - 1)
	if len(e.heap) > e.PeakPending {
		e.PeakPending = len(e.heap)
	}
	return i
}

// ---- intrusive 4-ary min-heap of inline-key cells ----
//
// A 4-ary layout halves the tree depth of a binary heap, and the hole-
// based sift loops below write each moved element exactly once. Order
// is (at, seq) ascending — seq is the FIFO tie-break. A level's four
// children are 96 contiguous bytes; the only arena access is the pos
// write-back for a cell that moved.

// heapPopMin removes the root (the earliest event). The caller has
// already read the cell and releases its slot, which clears pos.
//
//prestolint:noalloc
func (e *Engine) heapPopMin() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = last
		e.siftDown(0)
	}
}

// heapRemove deletes the element at heap position pos (Cancel's path,
// which then releases the slot).
//
//prestolint:noalloc
func (e *Engine) heapRemove(pos int32) {
	h := e.heap
	n := len(h) - 1
	i := int(pos)
	last := h[n]
	e.heap = h[:n]
	if i < n {
		e.heap[i] = last
		e.siftDown(i)
		if e.arena[last.slot].pos == pos {
			// Didn't move down; it may need to move up instead.
			e.siftUp(i)
		}
	}
}

// siftUp restores heap order by floating the element at index i toward
// the root.
//
//prestolint:noalloc
func (e *Engine) siftUp(i int) {
	h := e.heap
	moved := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&moved) {
			break
		}
		h[i] = h[p]
		e.arena[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = moved
	e.arena[moved.slot].pos = int32(i)
}

// siftDown restores heap order by sinking the element at index i.
//
//prestolint:noalloc
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	moved := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&moved) {
			break
		}
		h[i] = h[best]
		e.arena[h[i].slot].pos = int32(i)
		i = best
	}
	h[i] = moved
	e.arena[moved.slot].pos = int32(i)
}

// Timer is a restartable one-shot timer bound to an Engine, analogous to
// time.Timer but in simulated time. The zero value is unusable; create
// with NewTimer.
type Timer struct {
	e  *Engine
	id EventID
	fn func()
	// fireFn is t.fire bound once at construction, so Reset does not
	// allocate a fresh method-value closure on every rearm.
	fireFn func()
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil fn")
	}
	t := &Timer{e: e, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire after delay, canceling any pending
// expiration.
func (t *Timer) Reset(delay Time) {
	t.e.Cancel(t.id)
	t.id = t.e.Schedule(delay, t.fireFn)
}

// Stop disarms the timer. It reports whether a pending expiration was
// canceled.
func (t *Timer) Stop() bool {
	ok := t.e.Cancel(t.id)
	t.id = EventID{}
	return ok
}

// Armed reports whether the timer has a pending expiration. It routes
// through the engine's generation check, so a fired-then-reused event
// slot is never misreported as armed.
func (t *Timer) Armed() bool {
	return t.e.Armed(t.id)
}

func (t *Timer) fire() {
	t.id = EventID{}
	t.fn()
}
