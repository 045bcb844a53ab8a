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
// steady state. A plain event (Schedule, At, ShardGroup.Send/SendArg) is
// a value nothing can cancel: on a delay the engine keeps seeing, its
// (at, seq) key and callback sit in one cell of a fixed-delay FIFO lane
// (see the lanes section). A Timer is the only cancelable event. Timers,
// plain events on other delays and cross-shard handoffs queue in an
// intrusive 4-ary min-heap of (at, seq, slot) cells, their callbacks in
// a pooled arena of slots recycled through a free list. Dispatch pops
// the earliest of the heap top and the lane heads. Arena invariants:
//
//   - A slot is queued (pos >= 0, its cell's index in heap) or free (on
//     the free list, pos == -1, callback zero).
//   - The key lives in the heap cell only; a timer re-arm or a shard
//     fixup rewrites heap[pos], found through the slot.
//   - A timer's handle carries the slot's generation, bumped by every
//     release and every re-arm: a handle to an arming that fired, was
//     stopped or re-armed, or to a reused slot, is inert.
//   - The slot is released *before* its callback runs: the firing timer
//     is already disarmed inside it, and a Schedule there may reuse it.
//   - Release clears the callback, as a lane pop clears its cell's, so
//     the queue never pins dead closures or arguments.
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
	gen  uint64 // bumped on every release and re-arm; handles must match to act
	cb   callback
	pos  int32 // index of the cell in the heap, or -1 when free
	next int32 // next free slot while on the free list
}

// inHeap is laneFor's answer, and earliest's source, for the heap.
const inHeap = -1

// heapCell is one heap entry: the event's key inline, and the arena slot
// holding its callback (unused in heads, which mirrors lane head keys).
type heapCell struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot int32
}

// before reports whether c fires strictly before d.
func (c *heapCell) before(d *heapCell) bool {
	return c.at < d.at || (c.at == d.at && c.seq < d.seq)
}

// laneCell is one plain event in a lane, key and callback by value.
type laneCell struct {
	at  Time
	seq uint64
	cb  callback
}

// handle names one occupancy of a slot: a Timer's arming, or a heap
// insert in a window journal. Generations start at 1, so the zero
// handle names nothing.
type handle struct {
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
	// Fixed-delay lanes (see the lanes section): heads[i] is a copy of
	// lane i's head key, or emptyHead, so earliest reads 8 contiguous
	// keys; laneDelay[i] is the delay lane i serves, cand counts sightings
	// of lane-less delays, live counts queued events, heap and lanes
	// together.
	heads     [maxLanes]heapCell
	lanes     [maxLanes]lane
	laneDelay [maxLanes]Time
	cand      [1 << laneCandidateBits]laneCandidate
	live      int
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
	// PeakPending is the high-water mark of Pending, exposed as a
	// telemetry probe.
	PeakPending int
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{free: -1}
	for i := range e.heads {
		e.heads[i] = emptyHead
	}
	return e
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

// queued returns h's slot if h still names a queued event, else nil.
func (e *Engine) queued(h handle) *eventSlot {
	if h.slot < 0 || int(h.slot) >= len(e.arena) {
		return nil
	}
	s := &e.arena[h.slot]
	if s.gen != h.gen || s.pos < 0 {
		return nil
	}
	return s
}

// Schedule runs fn after delay. A negative delay is treated as zero
// (the event fires at the current instant, after already-queued events
// for that instant). The event cannot be canceled; use a Timer for that.
//
//prestolint:noalloc
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t. If t is in the past, the event
// fires at the current instant.
//
//prestolint:noalloc
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	e.at(t, callback{fn: fn})
}

// nextSeq draws the sequence number of one schedule call.
//
//prestolint:noalloc
func (e *Engine) nextSeq() uint64 {
	if e.sh != nil {
		return e.sh.nextSeq()
	}
	e.seq++
	return e.seq
}

// at is the one plain-event schedule path, behind At and the group's
// sends: draw the seq, enqueue on the delay's lane if it has one, else
// in the heap (journaled in a window, for the fixup's rekey).
//
//prestolint:noalloc
func (e *Engine) at(t Time, cb callback) {
	if t < e.now {
		t = e.now
	}
	seq := e.nextSeq()
	// The delay is taken after the clamp: lanes rely on at = now + delay.
	if li := e.laneFor(t - e.now); li >= 0 {
		e.lanePush(li, laneCell{at: t, seq: seq, cb: cb})
		return
	}
	h := e.heapInsert(t, seq, cb)
	if e.sh != nil {
		e.sh.noteHeap(h)
	}
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.live }

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

	for e.live > 0 && !e.stopped.Load() {
		top, src := e.earliest()
		if top.at > until {
			break
		}
		e.take(top, src).call()
	}
	return e.stopped.Load()
}

// take dequeues the cell earliest returned, advances the clock to it and
// returns its callback — the step run and runWindow share.
//
//prestolint:noalloc
func (e *Engine) take(top heapCell, src int) callback {
	e.now = top.at
	e.live--
	e.Executed++
	if src >= 0 {
		return e.lanePop(src)
	}
	cb := e.arena[top.slot].cb
	e.heapPopMin()
	// Release before dispatch: a timer is disarmed inside its own
	// callback, and the slot may be reused there.
	e.release(top.slot)
	return cb
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
	for e.live > 0 {
		top, src := e.earliest()
		if top.at >= limit {
			break
		}
		cb := e.take(top, src)
		k0 := e.sh.k
		cb.call()
		if e.sh.k > k0 {
			// Journal only events that scheduled something: the barrier
			// merge replays schedule calls, not executions.
			e.sh.execLog = append(e.sh.execLog, execRec{at: top.at, seq: top.seq, nCalls: e.sh.k - k0})
		}
	}
}

// peekAt returns when the earliest queued event fires, never if none is.
func (e *Engine) peekAt() Time {
	top, _ := e.earliest()
	return top.at
}

// rekey rewrites the seqs a shard's last busy window handed out —
// provisional base + k for its k-th schedule call — to the true ones the
// barrier resolved, trueOf[k-1]. The shard's fixup applies it at the
// start of its next busy window or when the run ends, but its queue is
// untouched in between (an idle shard fires nothing, and handoffs to it
// wait staged until after the rekey), so it is as that window left it.
// Rekeying then never reorders a queue: within the window provisional
// order equals true relative order, and every true seq assigned for it
// exceeds every seq issued before it, so all comparisons are preserved
// and each key is overwritten in place. A lane's cells from the window
// are its tail, the only ones keyed above base: each lane is walked back
// from its tail while seq > base. A heap cell is found through its
// journaled handle, skipped if stale (fired, stopped or re-armed in the
// window). After a callback panic trueOf covers only the merged prefix
// of the calls; a seq past it is left as it is.
func (e *Engine) rekey(base uint64, trueOf []uint64, heapLog []handle) {
	resolved := func(seq uint64) uint64 {
		if j := seq - base - 1; j < uint64(len(trueOf)) {
			seq = trueOf[j]
		}
		return seq
	}
	for li := range e.lanes {
		l := &e.lanes[li]
		mask := int32(len(l.cells) - 1)
		for i := l.n - 1; i >= 0; i-- {
			c := &l.cells[(l.head+i)&mask]
			if c.seq <= base {
				break
			}
			c.seq = resolved(c.seq)
		}
		if l.n > 0 {
			e.heads[li].seq = l.cells[l.head].seq
		}
	}
	for _, h := range heapLog {
		if s := e.queued(h); s != nil {
			c := &e.heap[s.pos]
			c.seq = resolved(c.seq)
		}
	}
}

// heapInsert queues an event in the heap under an explicit key and
// returns its handle: a timer, a delay no lane serves, or a cross-shard
// handoff landing under its merged global seq.
//
//prestolint:noalloc
func (e *Engine) heapInsert(at Time, seq uint64, cb callback) handle {
	i := e.alloc()
	s := &e.arena[i]
	s.cb = cb
	//prestolint:allow hotalloc -- heap high-water growth is amortized; the backing array is reused once at steady size
	e.heap = append(e.heap, heapCell{at: at, seq: seq, slot: i})
	e.siftUp(len(e.heap) - 1)
	e.live++
	e.PeakPending = max(e.PeakPending, e.live)
	return handle{slot: i, gen: s.gen}
}

// ---- fixed-delay FIFO lanes ----
//
// A lane is a ring of the plain events scheduled with one delay d,
// sorted by construction: keys are (now + d, seq), the clock never moves
// backwards and seq only grows, so every push belongs at the tail — an
// O(1) append and head pop where the heap sifts through its depth, and a
// simulated network schedules nearly all its packet events with a
// handful of delays. Which delays get lanes (laneFor) is a function of
// the plain schedule calls alone. A push writes one cell and a pop reads
// one; timers, the only events that are canceled, never enter a lane.
//
// heads[i] mirrors lane i's head key (emptyHead when the lane is
// empty), so dispatch compares keys in one array instead of chasing each
// lane's ring. It changes on a push into an empty lane, on a pop, and
// when rekey rewrites the head.

const (
	// maxLanes bounds the heads every dispatch compares. A run's plain
	// events recur on a handful of delays (propagations and
	// serialisations); 16 lanes measured no faster on mice-churn and
	// 5 % slower on elephants.
	maxLanes = 8
	// lanePromoteHits sightings in a row earn a delay a lane: a one-off
	// batch of equal delays should not take one, and the wait is invisible.
	lanePromoteHits = 8
	// The sighting table is direct-mapped with twice maxLanes entries; a
	// colliding delay evicts the resident, so it is kept sparse.
	laneCandidateBits = 4
	laneMinRing       = 64 // a lane's first ring size, a power of two
)

// lane is one fixed-delay FIFO: a power-of-two ring of n cells in firing
// order, starting at head.
type lane struct {
	cells   []laneCell
	head, n int32
}

// emptyHead is heads[i] for an empty lane: later than any event, so
// earliest never picks it.
var emptyHead = heapCell{at: never, seq: 1<<64 - 1, slot: -1}

// laneCandidate counts sightings of one lane-less delay.
type laneCandidate struct {
	delay Time
	hits  int32
}

// laneFor returns the lane serving delay d, or inHeap. A miss is a
// sighting of d; the lanePromoteHits-th gives d the first empty lane. An
// empty lane holds no order, so lanes change hands freely (a new
// engine's all serve delay 0); a delay that finds none empty stays in
// the heap, which is always correct.
//
//prestolint:noalloc
func (e *Engine) laneFor(d Time) int {
	for i := range e.laneDelay {
		if e.laneDelay[i] == d {
			return i
		}
	}
	c := &e.cand[uint64(d)*0x9e3779b97f4a7c15>>(64-laneCandidateBits)]
	if c.delay != d {
		*c = laneCandidate{delay: d} // a collision costs the resident its sightings
	}
	c.hits++
	if c.hits < lanePromoteHits {
		return inHeap
	}
	for i := range e.lanes {
		if e.lanes[i].n == 0 {
			e.laneDelay[i] = d
			c.hits = 0
			return i
		}
	}
	c.hits-- // no empty lane now: ask again at the next sighting
	return inHeap
}

// lanePush appends c to lane li, doubling a full ring.
//
//prestolint:noalloc
func (e *Engine) lanePush(li int, c laneCell) {
	l := &e.lanes[li]
	if int(l.n) == len(l.cells) {
		// A full ring wraps at head: copy it out in firing order.
		//prestolint:allow hotalloc -- lane ring high-water growth is amortized; steady state reuses the ring (TestEngineScheduleDispatchAllocs pins 0 allocs)
		cells := make([]laneCell, max(2*len(l.cells), laneMinRing))
		copy(cells[copy(cells, l.cells[l.head:]):], l.cells[:l.head])
		l.cells, l.head = cells, 0
	}
	mask := int32(len(l.cells) - 1)
	if l.n > 0 {
		if t := &l.cells[(l.head+l.n-1)&mask]; c.at < t.at || (c.at == t.at && c.seq < t.seq) {
			panic("sim: lane push out of order") // the clock or the sequence moved backwards
		}
	} else {
		e.heads[li] = heapCell{at: c.at, seq: c.seq}
	}
	l.cells[(l.head+l.n)&mask] = c
	l.n++
	e.live++
	e.PeakPending = max(e.PeakPending, e.live)
}

// lanePop removes lane li's head cell and returns its callback.
//
//prestolint:noalloc
func (e *Engine) lanePop(li int) callback {
	l := &e.lanes[li]
	c := &l.cells[l.head]
	cb := c.cb
	c.cb = callback{}
	l.head = (l.head + 1) & int32(len(l.cells)-1)
	l.n--
	e.heads[li] = emptyHead
	if l.n > 0 {
		h := &l.cells[l.head]
		e.heads[li] = heapCell{at: h.at, seq: h.seq}
	}
	return cb
}

// earliest returns the queued key that fires first and where it sits, a
// lane index or inHeap; a cell at never when nothing is queued.
//
//prestolint:noalloc
func (e *Engine) earliest() (best heapCell, src int) {
	best, src = emptyHead, inHeap
	if len(e.heap) > 0 {
		best = e.heap[0]
	}
	for i := range e.heads {
		if c := &e.heads[i]; c.before(&best) {
			best, src = *c, i
		}
	}
	return best, src
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

// heapRemove deletes the element at heap position pos (Timer.Stop's
// path, which then releases the slot).
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
// time.Timer but in simulated time, and the engine's only cancelable
// event. The zero value is unusable; create with NewTimer.
type Timer struct {
	e  *Engine
	h  handle // the current arming; stale once it fires or is stopped
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

// Reset (re)arms the timer to fire after delay (a negative delay is
// zero), canceling any pending expiration. An armed timer keeps its slot
// and heap cell: the cell takes the new key and is sifted, and the
// generation moves on, as if the arming were canceled and a new one made.
//
//prestolint:noalloc
func (t *Timer) Reset(delay Time) {
	e := t.e
	at := e.now + max(delay, 0)
	seq := e.nextSeq()
	if s := e.queued(t.h); s != nil {
		s.gen++
		t.h.gen = s.gen
		c := &e.heap[s.pos]
		earlier := at < c.at // the new seq is above every queued one
		c.at, c.seq = at, seq
		if earlier {
			e.siftUp(int(s.pos))
		} else {
			e.siftDown(int(s.pos))
		}
	} else {
		t.h = e.heapInsert(at, seq, callback{fn: t.fireFn})
	}
	if e.sh != nil {
		e.sh.noteHeap(t.h)
	}
}

// Stop disarms the timer. It reports whether a pending expiration was
// canceled.
func (t *Timer) Stop() bool {
	e, h := t.e, t.h
	t.h = handle{}
	s := e.queued(h)
	if s == nil {
		return false
	}
	e.heapRemove(s.pos)
	e.live--
	e.release(h.slot)
	return true
}

// Armed reports whether the timer has a pending expiration. It goes
// through the slot's generation check, so a fired-then-reused event
// slot is never misreported as armed.
func (t *Timer) Armed() bool {
	return t.e.queued(t.h) != nil
}

func (t *Timer) fire() {
	t.h = handle{}
	t.fn()
}
