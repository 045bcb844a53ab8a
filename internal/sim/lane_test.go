package sim

import (
	"fmt"
	"runtime"
	"strings"
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

// checkHeads verifies the dispatch invariant: heads[i] holds lane i's
// head key, or is emptyHead when the lane is empty.
func checkHeads(e *Engine) error {
	for i := range e.lanes {
		l, want := &e.lanes[i], emptyHead
		if l.n > 0 {
			c := &l.cells[l.head]
			want = heapCell{at: c.at, seq: c.seq}
		}
		if got := e.heads[i]; got.at != want.at || got.seq != want.seq {
			return fmt.Errorf("lane %d: heads[%d] = %+v, head key %+v of %d", i, i, got, want, l.n)
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

func laneLive(e *Engine) int32 {
	var n int32
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
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

// TestTimersLeaveLanesToPackets pins who the lanes are for. Timers are
// armed at the TCP ladder — the RTO's 200 ms and the 10–160 ms probe
// timeouts and backoffs — and at the NIC's 20 µs coalescing delay, each
// re-armed more than lanePromoteHits times and left pending: seven
// delays, which would hold seven of the eight lanes if a timer could
// take one. Then two per-packet delays recur, an ACK's 68 ns
// serialisation and a 500 ns propagation. Both must be served by lanes,
// and the timers must sit in the heap.
func TestTimersLeaveLanesToPackets(t *testing.T) {
	e := NewEngine()
	ladder := []Time{
		10 * Millisecond, 20 * Millisecond, 40 * Millisecond, 80 * Millisecond,
		160 * Millisecond, 200 * Millisecond, 20 * Microsecond,
	}
	for _, d := range ladder {
		tm := NewTimer(e, func() {})
		for i := 0; i < 2*lanePromoteHits; i++ {
			tm.Reset(d)
		}
	}
	acks, props := 0, 0
	var ack, prop func()
	ack = func() {
		if acks++; acks < 100 {
			e.Schedule(68, ack)
		}
	}
	prop = func() {
		if props++; props < 20 {
			e.Schedule(500, prop)
		}
	}
	e.Schedule(0, ack)
	e.Schedule(0, prop)
	e.Run(15 * Microsecond)
	for _, d := range []Time{68, 500} {
		if laneOf(e, d) == nil {
			t.Errorf("per-packet delay %v has no lane", d)
		}
	}
	for _, d := range ladder {
		if laneOf(e, d) != nil {
			t.Errorf("timer delay %v holds a lane", d)
		}
	}
	if len(e.heap) != len(ladder) || e.Pending() != len(ladder) {
		t.Fatalf("heap %d cells, %d pending; want the %d timers, in the heap", len(e.heap), e.Pending(), len(ladder))
	}
}

// TestTimerResetStormStaysSmall is the RTO case: a timer re-armed at a
// constant 200 ms on every ACK, a million times, one ACK per
// microsecond. A re-arm moves the timer's one heap cell, so the queue
// ends at one cell — the timer's — in an arena of two slots.
func TestTimerResetStormStaysSmall(t *testing.T) {
	e := NewEngine()
	const rto = 200 * Millisecond
	tm := NewTimer(e, func() { t.Error("the RTO fired") })
	acks := 0
	var ack func()
	ack = func() {
		tm.Reset(rto)
		if acks++; acks < 1_000_000 {
			e.Schedule(Microsecond, ack)
		}
	}
	e.Schedule(0, ack)
	e.Run(Second) // the last ACK is at 999,999 µs, the RTO 200 ms after it
	if acks != 1_000_000 {
		t.Fatalf("setup: %d ACKs, want 1M", acks)
	}
	if e.Pending() != 1 || len(e.heap) != 1 || laneLive(e) != 0 || !tm.Armed() {
		t.Fatalf("after 1M Resets: %d pending, heap %d cells, lanes %d cells, armed = %v; want one cell, the timer's",
			e.Pending(), len(e.heap), laneLive(e), tm.Armed())
	}
	if len(e.arena) > 2 || e.PeakPending != 2 {
		t.Fatalf("arena %d slots, PeakPending %d; want <= 2 and 2", len(e.arena), e.PeakPending)
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
// thousands of events pending, one firing in three re-arming or
// stopping one of 64 timers — so lane rings grow while wrapped and
// timer cells move through a deep heap; the lane heads are checked at
// every tick. The fuzz target covers the API's corners; this covers
// depth.
func TestLanesMatchReferenceAtDepth(t *testing.T) {
	run := func(q scriptEngine) []int64 {
		rng := NewRNG(7)
		var (
			log    []int64
			timers []scriptTimer
			sent   int
			tick   func()
		)
		grow := func() {
			q.schedule(fuzzDelays[2+rng.Intn(3)], tick)
			sent++
		}
		tick = func() {
			q.check()
			log = append(log, int64(q.Now()), int64(q.Pending()))
			for k := 0; k < 2 && sent < 20_000; k++ {
				grow()
			}
			if rng.Intn(3) == 0 {
				tm := timers[rng.Intn(len(timers))]
				if rng.Intn(4) == 0 {
					log = append(log, b2i(tm.Stop()))
				} else {
					tm.Reset(fuzzDelays[2+rng.Intn(5)])
				}
			}
		}
		for i := 0; i < 64; i++ {
			timers = append(timers, q.timer(tick))
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
// the local events in every place a window leaves them. Shard 1 earns
// lanes for delays 90 and 150 in the sequential phase, so both hold
// true-keyed cells; then, at t = 20, it schedules two events on the
// 150 lane — at its tail, behind the true-keyed cells, which are still
// queued at the barrier — two on the 90 lane, whose true-keyed cells
// fire in the window, so they are its head, and re-arms a timer between
// them, a heap cell. Shard 0 at t = 10 makes five local calls first, so
// every provisional seq on shard 1 is below the true seqs of the two
// handoffs it sends to land at 110 and 170: the same-instant order
// holds only if the fixup rewrites each place — lane tail, lane head
// and its heads entry, heap cell.
func TestBarrierRekeysLaneCells(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	s0, e := g.Shard(0), g.Shard(1)
	head, tail := earnLane(t, e, 90), earnLane(t, e, 150)
	tail0 := tail.n
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	tm := NewTimer(e, mark("timer"))
	s0.Schedule(10, func() {
		for i := 0; i < 5; i++ {
			s0.Schedule(100, func() {})
		}
		g.Send(s0, 1, 100, mark("handoff@110"))
		g.Send(s0, 1, 160, mark("handoff@170"))
	})
	e.Schedule(20, func() {
		e.Schedule(150, mark("tail1"))
		e.Schedule(150, mark("tail2"))
		e.Schedule(90, mark("head1"))
		tm.Reset(90)
		e.Schedule(90, mark("head2"))
	})
	g.Run(100)
	if head.n != 2 || tail.n != tail0+2 || !tm.Armed() {
		t.Fatalf("setup: the 90 lane holds %d cells, the 150 lane %d, timer armed %v; want 2, %d and true",
			head.n, tail.n, tm.Armed(), tail0+2)
	}
	if err := checkHeads(e); err != nil {
		t.Fatalf("after the rekey: %v", err)
	}
	g.RunAll()
	want := "handoff@110,head1,timer,head2,handoff@170,tail1,tail2"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
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
