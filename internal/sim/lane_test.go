package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// laneOf returns the lane serving delay d, or nil.
func laneOf(e *Engine, d Time) *lane {
	for i := range e.laneDelay {
		if e.laneDelay[i] == d {
			return &e.lanes[i]
		}
	}
	return nil
}

// checkHeads verifies the dispatch invariant: heads[i] is lane i's head
// cell, live, or emptyHead when the lane is empty.
func checkHeads(e *Engine) error {
	for i := range e.lanes {
		l, want := &e.lanes[i], emptyHead
		if l.n > 0 {
			want = l.cells[l.head]
		}
		if e.heads[i] != want || (l.n > 0 && want.slot < 0) {
			return fmt.Errorf("lane %d: heads[%d] = %+v, head cell %+v of %d", i, i, e.heads[i], want, l.n)
		}
	}
	return nil
}

// earnLane schedules no-ops with delay d until d has a lane.
func earnLane(t *testing.T, e *Engine, d Time) *lane {
	t.Helper()
	for i := 0; i < lanePromoteHits; i++ {
		e.Schedule(d, func() {})
	}
	l := laneOf(e, d)
	if l == nil {
		t.Fatalf("delay %v has no lane after %d schedule calls", d, lanePromoteHits)
	}
	return l
}

// TestLanePromotion pins the promotion rule: a delay is in the heap
// until its lanePromoteHits-th sighting, maxLanes delays get lanes, one
// more stays in the heap while every lane holds events, and takes over
// the first lane that empties.
func TestLanePromotion(t *testing.T) {
	e := NewEngine()
	for i := 0; i < lanePromoteHits-1; i++ {
		e.Schedule(1000, func() {})
	}
	if laneOf(e, 1000) != nil || len(e.heap) != lanePromoteHits-1 {
		t.Fatalf("delay promoted early: %d of %d events in the heap", len(e.heap), lanePromoteHits-1)
	}
	for d := Time(1000); d < 1000+maxLanes; d++ {
		earnLane(t, e, d)
	}
	inHeapBefore := len(e.heap)
	for i := 0; i < 3*lanePromoteHits; i++ {
		e.Schedule(5000, func() {})
	}
	if laneOf(e, 5000) != nil || len(e.heap) != inHeapBefore+3*lanePromoteHits {
		t.Fatal("a ninth delay got a lane although none was empty")
	}
	// Delay 1000's lane is the first to drain (the earliest events);
	// the next sighting of 5000 moves in.
	e.Run(1000)
	if l := laneOf(e, 1000); l == nil || l.n != 0 {
		t.Fatal("setup: delay 1000's lane should be empty after Run(1000)")
	}
	e.Schedule(5000, func() {})
	if laneOf(e, 5000) == nil || laneOf(e, 1000) != nil {
		t.Fatal("a recurring delay did not take over the emptied lane")
	}
	if e.Pending() != e.live || e.Pending() != len(e.heap)+int(laneLive(e)) {
		t.Fatalf("Pending() = %d, heap %d + lanes %d", e.Pending(), len(e.heap), laneLive(e))
	}
	e.RunAll()
	if e.Pending() != 0 {
		t.Fatalf("%d events left after RunAll", e.Pending())
	}
}

func laneLive(e *Engine) int32 {
	var n int32
	for i := range e.lanes {
		n += e.lanes[i].n - e.lanes[i].dead
	}
	return n
}

// TestLaneResetStormStaysSmall is the RTO case: a million Resets of one
// timer at a constant delay, with other timers of the same delay armed
// before it, so every cancel lands in the middle or at the tail of the
// lane and never at its head. Tombstones must be compacted away as fast
// as they are made: the ring stays at its first size.
func TestLaneResetStormStaysSmall(t *testing.T) {
	e := NewEngine()
	const rto = 200 * Millisecond
	l := earnLane(t, e, rto)
	for i := 0; i < 10; i++ {
		e.Schedule(rto, func() {}) // other connections' timers, armed earlier
	}
	live, pending := l.n, e.Pending()
	tm := NewTimer(e, func() {})
	for i := 0; i < 1_000_000; i++ {
		tm.Reset(rto)
		if l.dead > l.n-l.dead {
			t.Fatalf("reset %d: %d tombstones among %d cells", i, l.dead, l.n)
		}
	}
	if len(l.cells) != laneMinRing || l.n > 2*(live+1) {
		t.Fatalf("after 1M Resets the lane's ring has %d cells, %d in use; want %d and <= %d",
			len(l.cells), l.n, laneMinRing, 2*(live+1))
	}
	if e.Pending() != pending+1 || e.PeakPending != pending+1 || !tm.Armed() {
		t.Fatalf("Pending() = %d, PeakPending = %d, armed = %v; want %d live events (tombstones not counted) and the timer armed",
			e.Pending(), e.PeakPending, tm.Armed(), pending+1)
	}
}

// TestLaneCancelAfterCompaction: compaction moves cells, so it must
// rewrite each survivor's index in its slot — a later Cancel finds its
// cell through that index. Cancel half of a lane and one more, which
// compacts it, then cancel survivors that moved, and check that exactly
// the uncanceled events fire, in order.
func TestLaneCancelAfterCompaction(t *testing.T) {
	e := NewEngine()
	l := earnLane(t, e, 500)
	e.RunAll()
	var fired []int
	ids := make([]EventID, 96)
	for i := range ids {
		i := i
		ids[i] = e.Schedule(500, func() { fired = append(fired, i) })
	}
	canceled := map[int]bool{}
	cancel := func(i int) {
		t.Helper()
		if !e.Cancel(ids[i]) {
			t.Fatalf("Cancel of queued event %d returned false", i)
		}
		canceled[i] = true
	}
	for i := 1; i < 96; i += 2 { // 48 of 96, never the head: as many dead as live
		cancel(i)
	}
	cancel(2) // one more: compaction, every survivor but the head moves
	if l.dead != 0 || l.n != 47 {
		t.Fatalf("setup: lane holds %d cells, %d dead; want a compacted ring of 47", l.n, l.dead)
	}
	for i := 6; i < 96; i += 4 {
		cancel(i)
	}
	cancel(0) // the head
	if live := int(l.n - l.dead); live != 96-len(canceled) {
		t.Fatalf("lane holds %d live cells, want %d", live, 96-len(canceled))
	}
	e.RunAll()
	var want []int
	for i := range ids {
		if !canceled[i] {
			want = append(want, i)
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestLanePushOutOfOrderPanics pins the push assertion: a cell that
// would fire before the lane's tail means the clock went backwards.
func TestLanePushOutOfOrderPanics(t *testing.T) {
	e := NewEngine()
	e.now = 1000
	earnLane(t, e, 50)
	e.now = 900
	defer func() {
		if recover() == nil {
			t.Fatal("a push that is before the lane's tail did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

// TestLanesMatchReferenceAtDepth drives the engine and the heap-only
// reference through a branching workload on three recurring delays —
// thousands of events pending, one firing in three canceling a random
// earlier event — so lane rings grow while wrapped, with tombstones
// inside, and are compacted many times; the lane heads are checked at
// every tick. The fuzz target covers the API's corners; this covers
// depth.
func TestLanesMatchReferenceAtDepth(t *testing.T) {
	run := func(q scriptEngine) []int64 {
		rng := NewRNG(7)
		var (
			log    []int64
			events []scriptEvent
			tick   func()
		)
		grow := func() { events = append(events, q.schedule(fuzzDelays[2+rng.Intn(3)], tick)) }
		tick = func() {
			q.check()
			log = append(log, int64(q.Now()), int64(q.Pending()))
			for k := 0; k < 2 && len(events) < 20_000; k++ {
				grow()
			}
			if rng.Intn(3) == 0 {
				log = append(log, b2i(events[rng.Intn(len(events))].cancel()))
			}
		}
		for i := 0; i < 300; i++ {
			grow()
		}
		q.RunAll()
		return append(log, int64(q.ran()))
	}
	e := NewEngine()
	got, want := run(realScript{e, t}), run(refScript{&refEngine{}})
	if len(got) != len(want) {
		t.Fatalf("logged %d values, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divergence at log index %d: engine %d, reference %d", i, got[i], want[i])
		}
	}
	grown := 0
	for i := range e.lanes {
		if len(e.lanes[i].cells) > laneMinRing {
			grown++
		}
	}
	if grown < 3 || e.PeakPending < 1000 {
		t.Fatalf("setup: %d lane rings grew, peak pending %d; want 3 and >= 1000", grown, e.PeakPending)
	}
}

// TestBarrierRekeysLaneCells is TestShardGroupSameInstantTieBreak with
// the local events queued in a lane: their provisional seqs are below
// the handoff's true one, so "handoff, local, local2" holds only if the
// barrier's rekey reaches the lane cells through their slots. The first
// Run ends at the barrier after the window that scheduled them, whose
// fixup rekeys local — by then its lane's head (the lane's earlier
// cells fired in that window) — and local2 behind it: the heads entry
// and a mid-ring cell are both rewritten.
func TestBarrierRekeysLaneCells(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	e := g.Shard(1)
	earnLane(t, e, 90)
	var (
		order []string
		local EventID
	)
	g.Shard(0).Schedule(10, func() {
		g.Shard(0).Schedule(100, func() {})
		g.Send(g.Shard(0), 1, 100, func() { order = append(order, "handoff") })
	})
	e.Schedule(20, func() {
		local = e.Schedule(90, func() { order = append(order, "local") })
		e.Schedule(90, func() { order = append(order, "local2") })
	})
	g.Run(100)
	if s := &e.arena[local.slot]; s.lane < 0 || s.pos != e.lanes[s.lane].head {
		t.Fatal("setup: the rekeyed local event is not at its lane's head")
	}
	if err := checkHeads(e); err != nil {
		t.Fatalf("after the rekey: %v", err)
	}
	g.RunAll()
	if len(order) != 3 || order[0] != "handoff" || order[1] != "local" || order[2] != "local2" {
		t.Fatalf("same-instant order = %v, want [handoff local local2]", order)
	}
}

// TestIdleShardWorkers is the regression for the worker start-up race:
// a shard with no work during a Run used to get a worker goroutine that
// read its start channel from the shard after the run's cleanup had
// cleared it — a data race, and a goroutine ranging over a nil channel
// for ever when it lost. Under -race, 200 runs of a 3-shard group with
// events on shards 0 and 1 only; the runs must leave no goroutine
// behind. (RunAll waits for its workers' last statement, not for the
// runtime to retire them, hence the yields before counting.)
func TestIdleShardWorkers(t *testing.T) {
	g := NewShardGroup(3, 100, 1)
	before := runtime.NumGoroutine()
	ran := 0
	for i := 0; i < 200; i++ {
		// Same instant on both shards: the window has two busy shards,
		// so one runs on the coordinator and one on a worker.
		g.Shard(0).Schedule(10, func() { ran++ })
		g.Shard(1).Schedule(10, func() {})
		g.RunAll()
	}
	if ran != 200 {
		t.Fatalf("shard 0 ran %d of 200 events", ran)
	}
	for i := 0; i < 100_000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after 200 RunAll calls, %d before", n, before)
	}
}
