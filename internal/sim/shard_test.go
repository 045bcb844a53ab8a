package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestShardGroupMatchesSerial pins the bit-identity invariant on fixed
// scripts for a spread of shard counts (including counts that don't
// divide the domain count, so shards carry uneven load).
func TestShardGroupMatchesSerial(t *testing.T) {
	scripts := [][]byte{
		{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		{3, 3, 3, 3, 255, 255, 0, 0, 7, 7, 7, 7, 2, 4, 6, 8, 1, 3, 5, 7, 9, 11},
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255},
		{},
	}
	for si, data := range scripts {
		for _, shards := range []int{1, 2, 3, 4, 7, 8} {
			want := runShardScriptSerial(data, shards, 99)
			got := runShardScriptGroup(data, shards, 99)
			if d := diffShardResults(want, got); d != "" {
				t.Fatalf("script %d, %d shards: %s", si, shards, d)
			}
		}
	}
}

// TestShardGroupSequentialPhase checks scheduling and cross-shard sends
// while no run is in progress: they draw from the shared counter and
// behave exactly like serial schedules, including sub-lookahead delays.
func TestShardGroupSequentialPhase(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	// Logs are per-shard: callbacks may only touch state owned by
	// their own shard (a shared slice would be racy and order would
	// reflect scheduler interleaving, not simulated time).
	logs := make([][]string, 2)
	mark := func(s int, label string) func() {
		return func() { logs[s] = append(logs[s], fmt.Sprintf("%s@%v", label, g.Shard(s).Now())) }
	}
	g.Shard(0).Schedule(50, mark(0, "a"))
	// Cross-shard sends below the lookahead are legal before the run
	// starts — there is no window to protect yet.
	g.Send(g.Shard(0), 1, 10, mark(1, "b"))
	g.Send(g.Shard(1), 0, 10, mark(0, "c"))
	g.Run(200)
	if got := strings.Join(logs[0], ","); got != "c@10ns,a@50ns" {
		t.Fatalf("shard 0 log = %q, want c@10ns,a@50ns", got)
	}
	if got := strings.Join(logs[1], ","); got != "b@10ns" {
		t.Fatalf("shard 1 log = %q, want b@10ns", got)
	}
	if g.Now() != 200 {
		t.Fatalf("Now() = %v after Run(200), want 200", g.Now())
	}
	for i := 0; i < 2; i++ {
		if n := g.Shard(i).Now(); n != 200 {
			t.Fatalf("shard %d clock = %v after Run(200), want 200", i, n)
		}
	}
}

// TestShardGroupSameInstantTieBreak checks the FIFO tie-break across a
// handoff: events landing at the same instant on one shard fire in
// global schedule order even when one of them crossed a shard boundary.
// The local event is queued under a provisional seq (window base + 1)
// that is below the handoff's true one (base + 2), so the order holds
// only if the barrier rekeys the queued event's heap cell.
func TestShardGroupSameInstantTieBreak(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	var order []string
	g.Shard(0).Schedule(10, func() {
		g.Shard(0).Schedule(100, func() {}) // takes true seq base+1
		// Scheduled next: the handoff arriving on shard 1 at t=110.
		g.Send(g.Shard(0), 1, 100, func() { order = append(order, "handoff") })
	})
	g.Shard(1).Schedule(20, func() {
		// Scheduled second (t=20 > t=10): the local event at t=110.
		g.Shard(1).Schedule(90, func() { order = append(order, "local") })
	})
	g.RunAll()
	if got := strings.Join(order, ","); got != "handoff,local" {
		t.Fatalf("same-instant order = %q, want handoff,local (handoff was scheduled first)", got)
	}
	if g.Now() != 110 {
		t.Fatalf("Now() = %v, want 110", g.Now())
	}
}

// TestShardGroupIdleShardReceivesHandoffs pins the deferred fixup. Of
// three shards, shard 2 runs once at t=5, scheduling two local events
// at t=500, then idles for at least three windows while shards 0 and 1
// tick every 30 ns and hand it events landing at t=480 and at t=500 —
// the first of them scheduled at t=0, before shard 2's locals in
// global order, so they must fire first although shard 2 queued its
// locals under provisional seqs below theirs. Each shard's event log
// must equal the serial engine's, which it does only if the idle
// shard, on waking, rekeys before it inserts what was staged for it.
func TestShardGroupIdleShardReceivesHandoffs(t *testing.T) {
	idleStreak := 0 // longest run of barriers shard 2 sat out with its fixup pending
	script := func(env *shardEnv) [][]uint64 {
		logs := make([][]uint64, 3)
		mark := func(d int, tag uint64) {
			env.rng(d).Uint64()
			logs[d] = append(logs[d], uint64(env.now(d)), tag)
		}
		var tick func(d int, n uint64) func()
		tick = func(d int, n uint64) func() {
			return func() {
				mark(d, n)
				now := env.now(d)
				if now >= 600 {
					return
				}
				env.schedule(d, d, 30, tick(d, n+1))
				if now <= 400 {
					env.schedule(d, 2, 500-now, func() { mark(2, 1000*uint64(d+1)+n) })
				}
				if now <= 380 && n%2 == 0 {
					env.schedule(d, 2, 480-now, func() { mark(2, 2000*uint64(d+1)+n) })
				}
			}
		}
		env.schedule(0, 0, 0, tick(0, 0))
		env.schedule(1, 1, 0, tick(1, 0))
		env.schedule(2, 2, 5, func() {
			mark(2, 1)
			env.schedule(2, 2, 495, func() { mark(2, 2) })
			env.schedule(2, 2, 495, func() { mark(2, 3) })
			env.schedule(2, 2, 505, func() { mark(2, 4) })
		})
		if g := env.group; g != nil {
			sh, streak, last := g.shards[2], 0, uint64(0)
			g.OnBarrier(func() {
				if sh.eng.Executed == last && len(sh.trueOf) > 0 && len(sh.staged) > 0 {
					streak++
					idleStreak = max(idleStreak, streak)
				} else {
					streak = 0
				}
				last = sh.eng.Executed
			})
		}
		env.runAll()
		return logs
	}
	want := runSerial(3, 5, script)
	got := runGroup(3, 5, script)
	if d := diffShardResults(want, got); d != "" {
		t.Fatalf("sharded run diverged from serial: %s", d)
	}
	if idleStreak < 3 {
		t.Fatalf("shard 2 sat out %d windows with its fixup pending, want >= 3", idleStreak)
	}
}

// TestShardGroupOversubscribed runs a group with more shards than
// processors, where every window wait parks: under GOMAXPROCS(1) a
// 7-shard group is bit-identical to serial, every Run leaves no worker
// goroutine behind, and a Stop from another goroutine still ends a run
// that would otherwise never drain.
func TestShardGroupOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	settled := func() bool {
		// A worker publishes its last done word just before it returns.
		for range 100000 {
			if runtime.NumGoroutine() <= base {
				return true
			}
			runtime.Gosched()
		}
		return false
	}

	script := make([]byte, 4096)
	for i := range script {
		script[i] = byte(i*37) | 3
	}
	if d := diffShardResults(runShardScriptSerial(script, 7, 42), runShardScriptGroup(script, 7, 42)); d != "" {
		t.Fatalf("sharded run diverged from serial: %s", d)
	}
	if !settled() {
		t.Fatalf("%d goroutines after RunAll, %d before", runtime.NumGoroutine(), base)
	}

	g := NewShardGroup(7, 100, 1)
	progress := make(chan struct{})
	var once sync.Once
	for s := 0; s < 7; s++ {
		n := 0
		var spin func()
		spin = func() {
			if n++; n == 5000 {
				once.Do(func() { close(progress) })
			}
			g.Shard(s).Schedule(7, spin)
			if n%10 == 0 {
				g.Send(g.Shard(s), (s+1)%7, 100, func() {})
			}
		}
		g.Shard(s).Schedule(0, spin)
	}
	for i := Time(1); i <= 20; i++ {
		g.Run(i * 500)
		if !settled() {
			t.Fatalf("Run %d: %d goroutines after, %d before", i, runtime.NumGoroutine(), base)
		}
	}
	go func() {
		<-progress
		g.Stop()
	}()
	g.RunAll()
	if !settled() {
		t.Fatalf("%d goroutines after the stopped RunAll, %d before", runtime.NumGoroutine(), base)
	}
	if g.Pending() == 0 {
		t.Fatal("stop consumed the pending self-rescheduling chains")
	}
}

// TestSignalStaleWake replays the interleaving where a set of epoch 1
// stalls between its store and its notify while the waiter sees the
// word, moves on and parks for epoch 2: the stalled notify's token must
// not end the wait for epoch 2.
func TestSignalStaleWake(t *testing.T) {
	s := signal{wake: make(chan struct{}, 1)}
	s.v.Store(1) // set(1), stalled before notify
	s.await(1, 0)
	returned := make(chan uint64)
	go func() {
		s.await(2, 0)
		returned <- s.v.Load()
	}()
	for !s.parked.Load() {
		runtime.Gosched()
	}
	s.notify() // the stalled set(1) resumes and takes the announcement
	for !s.parked.Load() || len(s.wake) > 0 {
		select {
		case v := <-returned:
			t.Fatalf("await(2) returned on a stale token with the word at %d", v)
		default:
			runtime.Gosched()
		}
	}
	s.set(2)
	if v := <-returned; v != 2 {
		t.Fatalf("await(2) returned with the word at %d", v)
	}
}

// TestShardGroupSpinsOnlyWhenShardsFitProcessors pins the spin-or-park
// rule to the process, not the group: a 2-shard group spins on two
// processors alone, and parks while another 2-shard run is in progress.
func TestShardGroupSpinsOnlyWhenShardsFitProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	probe := func(g *ShardGroup) int {
		spin := -1
		g.Shard(0).Schedule(0, func() { spin = g.spin() })
		g.Shard(1).Schedule(0, func() {})
		g.RunAll()
		return spin
	}
	b := NewShardGroup(2, 100, 2)
	if got := probe(b); got != spinChecks {
		t.Fatalf("alone: spin %d, want %d", got, spinChecks)
	}

	a := NewShardGroup(2, 100, 1)
	inA, release, doneA := make(chan struct{}), make(chan struct{}), make(chan struct{})
	a.Shard(0).Schedule(0, func() {
		close(inA)
		<-release
	})
	a.Shard(1).Schedule(0, func() {})
	go func() {
		a.RunAll()
		close(doneA)
	}()
	<-inA
	got := probe(b)
	close(release)
	<-doneA
	if got != 0 {
		t.Fatalf("beside another 2-shard run: spin %d, want 0", got)
	}
}

// TestShardGroupSendBelowLookaheadPanics pins the conservative bound:
// an in-window cross-shard send under the lookahead would break the
// window safety proof, so it must panic loudly rather than reorder.
func TestShardGroupSendBelowLookaheadPanics(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	panicked := make(chan any, 1)
	g.Shard(0).Schedule(0, func() {
		defer func() { panicked <- recover() }()
		g.Send(g.Shard(0), 1, 99, func() {})
	})
	// Give shard 1 concurrent work so the window genuinely runs on
	// worker goroutines.
	g.Shard(1).Schedule(0, func() {})
	g.RunAll()
	select {
	case r := <-panicked:
		if r == nil {
			t.Fatal("cross-shard Send below lookahead did not panic")
		}
	default:
		t.Fatal("sender callback never ran")
	}
}

// TestShardGroupStopFromCallback checks window-granular stop: an
// engine-level Stop raised inside a callback halts the whole group at
// the next barrier, and a resumed run completes with a state identical
// to an uninterrupted serial run.
func TestShardGroupStopFromCallback(t *testing.T) {
	build := func() (*ShardGroup, *[][]uint64) {
		g := NewShardGroup(2, 100, 7)
		logs := make([][]uint64, 2)
		for s := 0; s < 2; s++ {
			s := s
			var tick func(n int) func()
			tick = func(n int) func() {
				return func() {
					logs[s] = append(logs[s], uint64(g.Shard(s).Now()), g.RNG(s).Uint64())
					if n > 0 {
						g.Shard(s).Schedule(30, tick(n-1))
						g.Send(g.Shard(s), 1-s, 150, func() {})
					}
				}
			}
			g.Shard(s).Schedule(Time(s), tick(20))
		}
		return g, &logs
	}

	// Reference: run to completion without stopping.
	ref, refLogs := build()
	ref.RunAll()

	g, logs := build()
	fired := false
	g.Shard(0).Schedule(200, func() {
		fired = true
		g.Shard(0).Stop()
	})
	g.Run(5000)
	if !fired {
		t.Fatal("stop trigger never fired")
	}
	if g.Executed() >= ref.Executed() {
		t.Fatalf("stop did not halt early: executed %d of %d", g.Executed(), ref.Executed())
	}
	g.RunAll()
	if g.Executed() != ref.Executed()+1 {
		t.Fatalf("resumed run executed %d events, reference %d (+1 trigger)", g.Executed(), ref.Executed())
	}
	for s := range *refLogs {
		w, got := (*refLogs)[s], (*logs)[s]
		if len(w) != len(got) {
			t.Fatalf("shard %d: %d records vs reference %d", s, len(got), len(w))
		}
		for i := range w {
			if w[i] != got[i] {
				t.Fatalf("shard %d record %d diverged after stop+resume", s, i/2)
			}
		}
	}
}

// TestShardGroupStopFromAnotherGoroutine exercises the cross-goroutine
// stop path under -race: a watcher goroutine stops a group that would
// otherwise run a long self-rescheduling chain.
func TestShardGroupStopFromAnotherGoroutine(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	progress := make(chan struct{})
	var once sync.Once
	for s := 0; s < 2; s++ {
		s := s
		var spin func()
		n := 0
		spin = func() {
			n++
			if s == 0 && n == 500 {
				once.Do(func() { close(progress) })
			}
			g.Shard(s).Schedule(1, spin)
		}
		g.Shard(s).Schedule(0, spin)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-progress
		g.Stop()
	}()
	g.RunAll()
	wg.Wait()
	if g.Executed() < 500 {
		t.Fatalf("executed %d events, want >= 500 before stop", g.Executed())
	}
	if g.Pending() == 0 {
		t.Fatal("stop consumed the pending self-rescheduling chain")
	}
}

// TestShardGroupPanicPropagates checks that a callback panic on a
// worker goroutine resurfaces from Run on the caller's goroutine
// instead of crashing the process from the worker — and that the
// fixups the unwinding run still applies stay inside what the barrier
// merged. Shard 0's lane for delay 50 holds a true-keyed cell, then
// two cells an event at t = 5 queued (merged at the barrier), then four
// the panicking event queued (never merged: trueOf covers only the
// first two of the window's calls).
func TestShardGroupPanicPropagates(t *testing.T) {
	g := NewShardGroup(2, 100, 1)
	e := g.Shard(0)
	l := earnLane(t, e, 50)
	n0 := l.n
	e.Schedule(5, func() {
		e.Schedule(50, func() {})
		e.Schedule(50, func() {})
	})
	e.Schedule(10, func() {
		for i := 0; i < 4; i++ {
			e.Schedule(50, func() {})
		}
		panic("boom")
	})
	g.Shard(1).Schedule(10, func() {})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
		if l.n != n0+6 {
			t.Fatalf("the lane holds %d cells, want %d", l.n, n0+6)
		}
	}()
	g.RunAll()
	t.Fatal("panic did not propagate")
}

// TestShardGroupValidation pins the constructor and Send argument
// contracts.
func TestShardGroupValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewShardGroup(0)", func() { NewShardGroup(0, 100, 1) })
	expectPanic("zero lookahead", func() { NewShardGroup(2, 0, 1) })
	g := NewShardGroup(2, 100, 1)
	expectPanic("bad dst", func() { g.Send(g.Shard(0), 2, 200, func() {}) })
	expectPanic("nil fn", func() { g.Send(g.Shard(0), 1, 200, nil) })
	expectPanic("foreign engine", func() { g.Send(NewEngine(), 1, 200, func() {}) })
	expectPanic("Run on shard engine", func() { g.Shard(0).Run(10) })
}
