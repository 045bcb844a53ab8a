package sim

import (
	"container/heap"
	"testing"
)

// This file is the event queue's differential oracle: the engine the
// repository seeded with — one container/heap binary heap ordered by
// (at, seq), no arena, no lanes — kept as a test-only reference, and a
// script interpreter that drives it and the real Engine through the same
// byte-derived sequence of calls. Whatever the real engine does to go
// faster (the 4-ary inline-key heap, the fixed-delay lanes of plain
// events by value, timers re-armed in place), every callback must still
// fire in the same order and every observable answer — Now, Pending,
// Executed, Timer.Armed and Timer.Stop, what Run returns — must be
// equal. The reference keeps a cancelable handle to every event; its
// timers are the only code that uses one, as on the real engine.

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // position in the heap, -1 once fired or canceled
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refEngine has Engine's contract, stated the slow way.
type refEngine struct {
	now      Time
	seq      uint64
	queue    refHeap
	executed uint64
	stopped  bool
}

func (e *refEngine) Schedule(delay Time, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

func (e *refEngine) At(t Time, fn func()) *refEvent {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	return true
}

func (e *refEngine) Armed(ev *refEvent) bool { return ev != nil && ev.index >= 0 }
func (e *refEngine) Pending() int            { return len(e.queue) }
func (e *refEngine) Stop()                   { e.stopped = true }

func (e *refEngine) Run(until Time) Time {
	stopped := e.run(until)
	if e.now < until && !stopped {
		e.now = until
	}
	return e.now
}

func (e *refEngine) RunAll() Time {
	e.run(1<<62 - 1)
	return e.now
}

func (e *refEngine) run(until Time) bool {
	defer func() { e.stopped = false }()
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > until {
			break
		}
		ev := heap.Pop(&e.queue).(*refEvent)
		e.now = ev.at
		e.executed++
		ev.fn()
	}
	return e.stopped
}

// refTimer is Timer over the reference engine: a cancel and a fresh
// schedule per Reset.
type refTimer struct {
	e  *refEngine
	ev *refEvent
	fn func()
}

func (t *refTimer) Reset(delay Time) {
	t.e.Cancel(t.ev)
	t.ev = t.e.Schedule(delay, func() { t.ev = nil; t.fn() })
}

func (t *refTimer) Stop() bool {
	ok := t.e.Cancel(t.ev)
	t.ev = nil
	return ok
}

func (t *refTimer) Armed() bool { return t.e.Armed(t.ev) }

// ---- one script, two engines ----

// scriptTimer is the one handle the script keeps.
type scriptTimer interface {
	Reset(Time)
	Stop() bool
	Armed() bool
}

// scriptEngine is what the script needs of an engine.
type scriptEngine interface {
	schedule(delay Time, fn func())
	at(t Time, fn func())
	timer(fn func()) scriptTimer
	Run(until Time) Time
	RunAll() Time
	Stop()
	Now() Time
	Pending() int
	ran() uint64
	// check asserts the engine's internal invariants between steps.
	check()
}

// realScript drives the real engine and fails t when checkHeads does.
type realScript struct {
	*Engine
	t testing.TB
}

func (r realScript) schedule(d Time, fn func())  { r.Schedule(d, fn) }
func (r realScript) at(t Time, fn func())        { r.At(t, fn) }
func (r realScript) timer(fn func()) scriptTimer { return NewTimer(r.Engine, fn) }
func (r realScript) ran() uint64                 { return r.Executed }
func (r realScript) check() {
	if err := checkHeads(r.Engine); err != nil {
		r.t.Fatal(err)
	}
}

type refScript struct{ *refEngine }

func (r refScript) schedule(d Time, fn func())  { r.Schedule(d, fn) }
func (r refScript) at(t Time, fn func())        { r.At(t, fn) }
func (r refScript) timer(fn func()) scriptTimer { return &refTimer{e: r.refEngine, fn: fn} }
func (r refScript) Now() Time                   { return r.now }
func (r refScript) ran() uint64                 { return r.executed }
func (r refScript) check()                      {}

// fuzzDelays is the small set of delays scripts mostly draw from, so
// that each recurs often enough to earn a lane and the lanes fill: the
// shape of a network's schedule calls (a few propagation and
// serialisation constants, one long timeout). There are more of them
// than lanes, so promotion, refusal and the reuse of an emptied lane
// all happen.
var fuzzDelays = [...]Time{0, 1, 5, 16, 120, 1200, 1230, 20_000, 200_000, 7}

// fuzzRTO is the one constant delay the script's Reset storms re-arm
// with, as TCP re-arms its RTO on every ACK.
const fuzzRTO = 20_000

// maxScriptTimers caps the timers a script arms beyond its four
// storm timers; past it, an arm re-arms an earlier timer.
const maxScriptTimers = 64

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// driveScript interprets data as a script over q and returns everything
// observable: a record per fired callback (label, Now, Pending,
// Executed), the answers to every Timer.Stop and Armed, and what each
// Run returned. Callbacks schedule children — lane delays, odd delays,
// zero and negative delays, absolute times in the past — arm new timers
// on the same delays and re-arm or stop the oldest, the newest or an
// arbitrary earlier one, storm Timer.Reset at one constant delay, and
// Stop the run from inside, after which the driver resumes it. The
// engine's invariants are checked after every step and every run.
func driveScript(data []byte, q scriptEngine) []int64 {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}

	const maxEvents = 1500 // labels handed out before callbacks stop scheduling
	var (
		log    []int64
		timers []scriptTimer // four storm timers, then the armed ones
		label  int64
		stops  int
		mk     func() func()
	)
	for i := 0; i < 4; i++ {
		i := i
		timers = append(timers, q.timer(func() { log = append(log, -10-int64(i), int64(q.Now()), int64(q.Pending())) }))
	}
	// pick returns the oldest, the newest or any earlier timer.
	pick := func(arg int) scriptTimer {
		switch arg & 3 {
		case 0:
			return timers[0]
		case 1:
			return timers[len(timers)-1]
		}
		return timers[(arg>>2)%len(timers)]
	}
	step := func() {
		op, arg := next(), next()
		switch op % 8 {
		case 0, 1: // a recurring delay: the common case, as in a real run
			q.schedule(fuzzDelays[arg%len(fuzzDelays)], mk())
		case 2: // an irregular delay
			q.schedule(Time(arg)*3+2, mk())
		case 3: // zero, or negative and clamped to zero
			q.schedule(-Time(arg&3), mk())
		case 4: // an absolute time: in the past (clamped), now, or just ahead
			q.at(q.Now()+Time(arg)-64, mk())
		case 5: // arm a new timer, or re-arm an earlier one, on a recurring delay
			d := fuzzDelays[(arg>>3)%len(fuzzDelays)]
			var t scriptTimer
			if arg&1 == 0 && len(timers) < 4+maxScriptTimers {
				t = q.timer(mk())
				timers = append(timers, t)
			} else {
				t = pick(arg >> 1)
			}
			log = append(log, -1, b2i(t.Armed()))
			t.Reset(d)
			log = append(log, b2i(t.Armed()), int64(q.Pending()))
		case 6: // a Reset storm; timer 3 takes an irregular delay instead
			t, d := timers[arg&3], Time(fuzzRTO)
			if arg&3 == 3 {
				d = Time(arg) + 3
			}
			for n := arg>>2&15 + 1; n > 0; n-- {
				t.Reset(d)
			}
			log = append(log, -2, b2i(t.Armed()), int64(q.Pending()))
		case 7: // stop a timer, or stop the run
			if arg&4 != 0 && stops < 8 {
				stops++
				q.Stop()
				break
			}
			t := pick(arg&3 | arg>>3<<2)
			log = append(log, -3, b2i(t.Armed()), b2i(t.Stop()), b2i(t.Armed()), int64(q.Pending()))
		}
		q.check()
	}
	mk = func() func() {
		l := label
		label++
		return func() {
			log = append(log, l, int64(q.Now()), int64(q.Pending()), int64(q.ran()))
			for n := next() & 3; n > 0 && label < maxEvents; n-- {
				step()
			}
		}
	}

	for n := next()%48 + 4; n > 0; n-- {
		step()
	}
	log = append(log, -4, int64(q.Run(Time(next())*100)), int64(q.Now()), int64(q.Pending()), int64(q.ran()))
	q.check()
	// At most 8 Stops, so the queue drains within 9 more runs.
	for i := 0; i < 9 && q.Pending() > 0; i++ {
		log = append(log, -5, int64(q.RunAll()), int64(q.Now()), int64(q.Pending()), int64(q.ran()))
		q.check()
	}
	return log
}
