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
// through a free list). Their (at, seq) keys sit inline in cells next to
// the slot index, queued in a fixed-delay FIFO lane when the delay is one
// the engine keeps seeing (see the lanes section), otherwise in an
// intrusive 4-ary min-heap; dispatch pops the earliest of the heap top
// and the lane heads, whose keys are mirrored in one array. Nothing is
// boxed or seen by the garbage collector, and the sift loops compare
// contiguous memory, touching the arena only to write pos. Arena
// invariants, for future editors:
//
//   - A slot is in exactly one of two states: queued (pos >= 0: an index
//     into heap, or into lanes[lane].cells when lane >= 0) or free (on
//     the free list, pos == -1, callback zero).
//   - The key lives in the cell only; whoever changes a queued event's
//     key (rekey) writes the cell found through (lane, pos), not the slot
//     — and heads[lane] too when the cell is its lane's head.
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

	pos  int32 // index of the cell in its heap or lane ring, or -1 when free
	next int32 // next free slot while on the free list
	lane int8  // lane holding the cell while queued, or inHeap
}

// inHeap is eventSlot.lane (and earliest's source) for a cell in the heap.
const inHeap = -1

// heapCell is one queue entry, in the heap or a lane: the event's key
// inline, and the arena slot holding the rest (< 0: a lane tombstone).
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
	// Fixed-delay lanes (see the lanes section): heads[i] is a copy of
	// lane i's head cell, or emptyHead, so earliest reads 8 contiguous
	// keys; laneDelay[i] is the delay lane i serves, cand counts sightings
	// of lane-less delays, live counts queued events, heap and lanes
	// together, tombstones excluded.
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

// at is the one schedule path, behind At and the group's sends: draw the
// seq, enqueue (on the delay's lane if it has one), journal in a window.
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
	// The delay is taken after the clamp: lanes rely on at = now + delay.
	i := e.insertKeyed(e.laneFor(t-e.now), t, sq, cb)
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
	if s.lane >= 0 {
		e.laneRemove(int(s.lane), s.pos)
	} else {
		e.heapRemove(s.pos)
	}
	e.live--
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
	cb := e.arena[top.slot].cb
	e.now = top.at
	if src >= 0 {
		e.laneRemove(src, e.lanes[src].head)
	} else {
		e.heapPopMin()
	}
	e.live--
	// Release before dispatch: the firing event's ID is dead from
	// inside its own callback, and the slot may be reused there.
	e.release(top.slot)
	e.Executed++
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

// rekey rewrites a queued event's sequence number from its provisional
// window-local value to the true global one resolved at the barrier.
// The shard applies it in its fixup: at the start of its next busy
// window, or when the run ends, possibly several windows after the
// barrier — but its queue is untouched in between (an idle shard fires
// nothing, and handoffs to it wait staged until after the rekey), so it
// is as the window that scheduled the event left it. Rekeying then
// never reorders the heap: within that window the shard's
// provisional order equals its true relative order, and every true seq
// assigned for it exceeds every seq issued before the window — so all
// comparator outcomes are preserved and the field can be overwritten in
// place (a lane stays sorted for the same reason). The key lives in the
// cell, so that is what is rewritten, found through the slot's (lane,
// pos). A dead ID (fired or canceled inside the window) is a no-op,
// exactly like Cancel.
func (e *Engine) rekey(id EventID, seq uint64) {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return
	}
	s := &e.arena[id.slot]
	if s.gen != id.gen || s.pos < 0 {
		return
	}
	if s.lane >= 0 {
		l := &e.lanes[s.lane]
		l.cells[s.pos].seq = seq
		if s.pos == l.head {
			e.heads[s.lane].seq = seq
		}
	} else {
		e.heap[s.pos].seq = seq
	}
}

// insertKeyed enqueues an event with an explicit (at, seq) key on lane
// li, or in the heap for inHeap, and returns its slot — the tail of every
// schedule call, and the barrier's path for landing a cross-shard
// handoff under its merged global seq (always inHeap: that key is not
// now + delay for any delay).
//
//prestolint:noalloc
func (e *Engine) insertKeyed(li int, at Time, seq uint64, cb callback) int32 {
	i := e.alloc()
	e.arena[i].cb = cb
	c := heapCell{at: at, seq: seq, slot: i}
	if li >= 0 {
		e.lanePush(li, c)
	} else {
		e.arena[i].lane = inHeap
		//prestolint:allow hotalloc -- heap high-water growth is amortized; the backing array is reused once at steady size
		e.heap = append(e.heap, c)
		e.siftUp(len(e.heap) - 1)
	}
	e.live++
	e.PeakPending = max(e.PeakPending, e.live)
	return i
}

// ---- fixed-delay FIFO lanes ----
//
// A lane is a ring of the events scheduled with one delay d, sorted by
// construction: keys are (now + d, seq), the clock never moves backwards
// and seq only grows, so every push belongs at the tail — an O(1) append
// and head pop where the heap sifts through its depth, and a simulated
// network schedules nearly all its events with a handful of delays. Which
// delays get lanes (laneFor) is a function of the schedule calls alone.
//
// Cancel cannot pull a cell out of a ring: it leaves a tombstone
// (slot < 0), dropped when it reaches the head — a non-empty lane's head
// is always live — or by compaction once the dead outnumber the living.
// Timer.Reset at a constant delay (the RTO, on every ACK) is a cancel
// mid-ring plus a push: one dead cell per ACK otherwise.
//
// heads[i] mirrors lane i's head cell (emptyHead when the lane is
// empty), so dispatch compares keys in one array instead of chasing each
// lane's ring. The head changes only when a push lands in an empty lane
// (lanePush), a removal drops it (laneRemove) and when rekey rewrites it;
// compaction and growth move the head cell but never change it.

const (
	// maxLanes bounds the heads every dispatch compares. Elephant runs
	// recur on seven delays (two propagations, three serialisations, the
	// coalescing delay, the RTO); mice-churn adds five backoff timers, but
	// 16 lanes measured no faster there and 5 % slower on elephants.
	maxLanes = 8
	// lanePromoteHits sightings in a row earn a delay a lane: a one-off
	// batch of equal delays should not take one, and the wait is invisible.
	lanePromoteHits = 8
	// The sighting table is direct-mapped with twice maxLanes entries; a
	// colliding delay evicts the resident, so it is kept sparse.
	laneCandidateBits = 4
	laneMinRing       = 64 // a lane's first ring size, a power of two
)

// lane is one fixed-delay FIFO: a power-of-two ring of cells in firing
// order, n of them starting at head, dead of which are tombstones.
type lane struct {
	cells         []heapCell
	head, n, dead int32
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

// lanePush appends c to lane li and points c's slot at the cell.
//
//prestolint:noalloc
func (e *Engine) lanePush(li int, c heapCell) {
	l := &e.lanes[li]
	if int(l.n) == len(l.cells) {
		//prestolint:allow hotalloc -- lane ring high-water growth is amortized; steady state reuses the ring (TestEngineScheduleDispatchAllocs pins 0 allocs)
		e.laneRepack(l, make([]heapCell, max(2*len(l.cells), laneMinRing)), 0)
	}
	mask := int32(len(l.cells) - 1)
	if l.n > 0 && c.before(&l.cells[(l.head+l.n-1)&mask]) {
		panic("sim: lane push out of order") // the clock or the sequence moved backwards
	}
	pos := (l.head + l.n) & mask
	l.cells[pos] = c
	if l.n == 0 {
		e.heads[li] = c
	}
	l.n++
	s := &e.arena[c.slot]
	s.pos, s.lane = pos, int8(li)
}

// laneRemove takes out the cell at pos, the head for a pop or any for a
// cancel: it becomes a tombstone, tombstones at the head are dropped, and
// the ring is compacted once the dead outnumber the living — so it never
// exceeds four times the lane's peak live count, and the removals since
// the last compaction pay for the next.
//
//prestolint:noalloc
func (e *Engine) laneRemove(li int, pos int32) {
	l := &e.lanes[li]
	l.cells[pos].slot = -1
	l.dead++
	for mask := int32(len(l.cells) - 1); l.n > 0 && l.cells[l.head].slot < 0; l.head = (l.head + 1) & mask {
		l.n--
		l.dead--
	}
	if l.dead > l.n-l.dead {
		e.laneRepack(l, l.cells, l.head)
	}
	e.heads[li] = emptyHead
	if l.n > 0 {
		e.heads[li] = l.cells[l.head]
	}
}

// laneRepack copies the live cells, in order, into dst from index start
// on — l's own ring and head to compact in place, a bigger ring to grow —
// rewriting each survivor's index in its slot.
//
//prestolint:noalloc
func (e *Engine) laneRepack(l *lane, dst []heapCell, start int32) {
	mask, dmask := int32(len(l.cells)-1), int32(len(dst)-1)
	w := start
	for i := int32(0); i < l.n; i++ {
		c := l.cells[(l.head+i)&mask]
		if c.slot < 0 {
			continue
		}
		dst[w] = c
		e.arena[c.slot].pos = w
		w = (w + 1) & dmask
	}
	l.cells, l.head, l.n, l.dead = dst, start, l.n-l.dead, 0
}

// earliest returns the queued cell that fires first and where it sits, a
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
