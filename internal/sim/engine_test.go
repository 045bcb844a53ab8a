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

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(Second, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel returned true")
	}
	if e.Cancel(EventID{}) {
		t.Fatal("Cancel of zero EventID returned true")
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
		var ids []EventID
		for i := 0; i < int(n)+1; i++ {
			id := e.Schedule(rng.Duration(Millisecond)+1, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if rng.Float64() < 0.3 {
					ids = append(ids, e.Schedule(rng.Duration(Microsecond)+1, func() {
						if e.Now() < last {
							ok = false
						}
						last = e.Now()
					}))
				}
			})
			if rng.Float64() < 0.1 {
				e.Cancel(id)
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
	var idB EventID
	bRan := false
	e.Schedule(Millisecond, func() {
		if !e.Cancel(idB) {
			t.Error("Cancel of a same-instant pending event returned false")
		}
	})
	idB = e.Schedule(Millisecond, func() { bRan = true })
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

func TestEventIDGenerationSurvivesSlotReuse(t *testing.T) {
	e := NewEngine()
	fired := 0
	a := e.Schedule(Second, func() { t.Error("canceled event fired") })
	if !e.Cancel(a) {
		t.Fatal("Cancel of pending event returned false")
	}
	// b reuses a's arena slot (LIFO free list); a's ID must stay dead.
	b := e.Schedule(Second, func() { fired++ })
	if e.Armed(a) {
		t.Fatal("stale EventID reports armed after slot reuse")
	}
	if !e.Armed(b) {
		t.Fatal("live EventID reports unarmed")
	}
	if e.Cancel(a) {
		t.Fatal("stale EventID canceled the slot's new occupant")
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("new occupant fired %d times, want 1", fired)
	}
	if e.Armed(b) || e.Cancel(b) {
		t.Fatal("fired event still armed/cancelable")
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

// TestEngineScheduleDispatchAllocs pins the arena's steady state: with
// the queue held 256 deep, a Schedule (slot off the free list + heap
// push) and a dispatch (heap pop + slot release) allocate nothing.
// This is the test the hotalloc suppressions in engine.go cite.
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

// TestTimerResetAllocs pins the cancel+rearm path: Reset removes the
// pending expiration from the middle of a populated heap and schedules
// its replacement through the bound fireFn, allocating nothing.
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
