package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{5 * Microsecond, Microsecond, 3 * Microsecond, 2 * Microsecond} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	want := []Time{Microsecond, 2 * Microsecond, 3 * Microsecond, 5 * Microsecond}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Millisecond, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestEngineNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, func() {
		fired := false
		e.Schedule(-5*Second, func() { fired = true })
		e2at := e.Now()
		_ = e2at
		_ = fired
	})
	// Schedule an event in the past via At from inside a callback.
	var at Time = -1
	e.Schedule(2*Second, func() {
		e.At(Second, func() { at = e.Now() }) // 1s is already in the past
	})
	e.RunAll()
	if at != 2*Second {
		t.Errorf("past event fired at %v, want clamped to 2s", at)
	}
}

func TestEngineRunHonorsHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(Second, func() { ran++ })
	e.Schedule(3*Second, func() { ran++ })
	e.Run(2 * Second)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunAll()
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestEngineRunAdvancesClockToHorizonWhenDrained(t *testing.T) {
	e := NewEngine()
	e.Schedule(Millisecond, func() {})
	e.Run(Second)
	if e.Now() != Second {
		t.Fatalf("Now() = %v after drain, want 1s", e.Now())
	}
}

// TestEngineCancel: a Timer is the engine's one cancelable event.
// Stopping it cancels its pending expiration once; a second Stop, and
// Stop of a timer never armed, are no-ops.
func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := NewTimer(e, func() { fired = true })
	if NewTimer(e, func() {}).Stop() {
		t.Fatal("Stop of a never-armed timer returned true")
	}
	tm.Reset(Second)
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending expiration")
	}
	if tm.Stop() {
		t.Fatal("double Stop returned true")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0", e.Pending())
	}
	e.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEngineStopFromCallback(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(Second, func() { ran++; e.Stop() })
	e.Schedule(2*Second, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("ran %d, want 1 (Stop should halt the loop)", ran)
	}
}

func TestEngineSelfScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	end := e.RunAll()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if end != 99*Microsecond {
		t.Fatalf("end time = %v, want 99us", end)
	}
}

func TestTimerResetAndStop(t *testing.T) {
	e := NewEngine()
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(Second)
	tm.Reset(2 * Second) // supersedes the first arming
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	e.RunAll()
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
	if e.Now() != 2*Second {
		t.Fatalf("fired at %v, want 2s", e.Now())
	}
	tm.Reset(Second)
	if !tm.Stop() {
		t.Fatal("Stop returned false for armed timer")
	}
	if tm.Stop() {
		t.Fatal("Stop of disarmed timer returned true")
	}
	e.RunAll()
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
}

// Property: for any set of delays, events execute in sorted order of
// their absolute firing times.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d)*Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine clock never moves backwards regardless of the
// interleaving of scheduling and cancellation.
func TestEngineMonotonicClockProperty(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		e := NewEngine()
		rng := NewRNG(seed)
		last := Time(-1)
		ok := true
		check := func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		}
		for i := 0; i < int(n)+1; i++ {
			tm := NewTimer(e, func() {
				check()
				if rng.Float64() < 0.3 {
					e.Schedule(rng.Duration(Microsecond)+1, check)
				}
			})
			tm.Reset(rng.Duration(Millisecond) + 1)
			if rng.Float64() < 0.1 {
				tm.Stop()
			}
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStopBeforeRunReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(Second, func() { ran++ })
	e.Stop() // no run in progress: the *next* run must be a no-op
	if got := e.Run(2 * Second); got != 0 {
		t.Fatalf("stopped Run returned %v, want 0 (clock untouched)", got)
	}
	if ran != 0 {
		t.Fatal("pre-run Stop was discarded: event executed")
	}
	// The pending stop is consumed; a subsequent run proceeds normally.
	e.RunAll()
	if ran != 1 {
		t.Fatalf("run after consumed Stop executed %d events, want 1", ran)
	}
}

func TestEngineStopBeforeRunAll(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(Microsecond, func() { ran = true })
	e.Stop()
	e.RunAll()
	if ran {
		t.Fatal("RunAll executed events despite pre-run Stop")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineCancelSameInstantFromCallback(t *testing.T) {
	e := NewEngine()
	bRan := false
	b := NewTimer(e, func() { bRan = true })
	e.Schedule(Millisecond, func() {
		if !b.Stop() {
			t.Error("Stop of a same-instant pending timer returned false")
		}
	})
	b.Reset(Millisecond)
	e.RunAll()
	if bRan {
		t.Fatal("event canceled from a same-instant callback still fired")
	}
}

func TestTimerResetInsideOwnFire(t *testing.T) {
	e := NewEngine()
	fires := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		fires++
		if tm.Armed() {
			t.Error("timer reports armed from inside its own fire")
		}
		if fires == 1 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	end := e.RunAll()
	if fires != 2 {
		t.Fatalf("timer fired %d times, want 2", fires)
	}
	if end != 2*Millisecond {
		t.Fatalf("last fire at %v, want 2ms", end)
	}
	if tm.Armed() {
		t.Fatal("timer armed after final fire")
	}
}

// TestTimerGenerationSurvivesSlotReuse: a stopped timer's handle is
// dead even when another timer takes its arena slot, and a re-armed
// timer's old arming is dead although its slot is the same.
func TestTimerGenerationSurvivesSlotReuse(t *testing.T) {
	e := NewEngine()
	fired := 0
	a := NewTimer(e, func() { t.Error("stopped timer fired") })
	a.Reset(Second)
	stale := a.h
	if !a.Stop() {
		t.Fatal("Stop of pending timer returned false")
	}
	// b reuses a's arena slot (LIFO free list); a's handle must stay dead.
	b := NewTimer(e, func() { fired++ })
	b.Reset(Second)
	if b.h.slot != stale.slot {
		t.Fatalf("setup: b took slot %d, want a's slot %d", b.h.slot, stale.slot)
	}
	a.h = stale
	if a.Armed() {
		t.Fatal("stale handle reports armed after slot reuse")
	}
	if !b.Armed() {
		t.Fatal("live timer reports unarmed")
	}
	if a.Stop() {
		t.Fatal("stale handle stopped the slot's new occupant")
	}
	// A re-arm keeps the slot and retires the old arming's handle.
	old := b.h
	b.Reset(2 * Second)
	if b.h.slot != old.slot || b.h.gen == old.gen || e.queued(old) != nil {
		t.Fatalf("re-arm: handle %+v -> %+v; want the same slot, a new generation, the old one dead", old, b.h)
	}
	e.RunAll()
	if fired != 1 || e.Now() != 2*Second {
		t.Fatalf("new occupant fired %d times, last at %v; want once at 2s", fired, e.Now())
	}
	if b.Armed() || b.Stop() {
		t.Fatal("fired timer still armed/stoppable")
	}
}

func TestTimerArmedNotConfusedBySlotReuse(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	tm.Reset(Microsecond)
	e.RunAll() // timer fires; its slot returns to the free list
	// A fresh event grabs the freed slot; the timer must not claim it.
	e.Schedule(Second, func() {})
	if tm.Armed() {
		t.Fatal("fired timer reports armed after its event slot was reused")
	}
	if tm.Stop() {
		t.Fatal("Stop of fired timer canceled another event")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (unrelated event must survive)", e.Pending())
	}
}

// TestEngineScheduleDispatchAllocs pins the queue's steady state: with
// 256 events in flight, a Schedule (a lane push once the delay has a
// lane, a heap insert before) and a dispatch allocate nothing. This is
// the test the hotalloc suppressions in engine.go cite.
func TestEngineScheduleDispatchAllocs(t *testing.T) {
	e := NewEngine()
	const depth = 256
	var tick func()
	tick = func() { e.Schedule(Microsecond, tick) }
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i), tick)
	}
	e.Run(e.Now() + Microsecond) // grow arena and heap to their high-water mark
	before := e.Executed
	allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + Microsecond) })
	if ran := e.Executed - before; ran < 100*depth || e.Pending() != depth {
		t.Fatalf("setup: ran %d events with %d pending, want >= %d and %d", ran, e.Pending(), 100*depth, depth)
	}
	if allocs != 0 {
		t.Fatalf("%d Schedule+dispatch pairs allocate %v, want 0", depth, allocs)
	}
}

// TestTimerResetAllocs pins the re-arm path: Reset moves the timer's
// cell within a populated heap, earlier or later, allocating nothing.
func TestTimerResetAllocs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i)*Millisecond, func() {})
	}
	tm := NewTimer(e, func() {})
	tm.Reset(Microsecond)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(Microsecond + Time(i&7))
		i++
	})
	if !tm.Armed() || e.Pending() != 65 {
		t.Fatalf("setup: armed=%v pending=%d, want true and 65", tm.Armed(), e.Pending())
	}
	if allocs != 0 {
		t.Fatalf("Timer.Reset allocates %v per op, want 0", allocs)
	}
}
