// Shard coordinator: conservative parallel discrete-event simulation
// over a set of Engines, bit-identical to one serial Engine.
//
// A ShardGroup partitions a simulation into n shards, each owning its
// own Engine (arena, heap, clock) and running on its own goroutine
// during a window. Synchronization is classic conservative lookahead
// (null-message/time-window advancement): with T the earliest pending
// event across all shards and L the minimum cross-shard latency, every
// shard may safely execute all events with timestamp < T + L before
// re-synchronizing, because a cross-shard handoff sent at or after T
// cannot arrive before T + L. Handoffs made during a window are staged
// at the barrier and enqueued by their destination shard when it next
// runs.
//
// A window is a round trip between the coordinator (the goroutine that
// called Run, which runs the first busy shard itself) and one worker
// goroutine per other busy shard. Windows are short — on a two-shard
// pod fabric about 120 events, both shards busy in nearly all of them —
// so the round trip must not cost a futex: the coordinator posts a
// window by advancing the worker's epoch word, the worker publishes its
// done word, and each side waits by spinning with runtime.Gosched. A
// wait parks (signal.await) only past a bounded number of checks, or at
// once when the running shards of the whole process outnumber
// GOMAXPROCS and spinning would take the processor from a busy shard.
//
// Bit-identity with the serial engine is the hard invariant: the same
// events fire in the same global (at, seq) order with the same seq
// values, so every downstream tie-break, RNG draw, and counter matches
// a serial run exactly. The serial seq is a single monotone counter
// incremented per schedule call — a global quantity a shard cannot
// know mid-window (it depends on how calls from all shards interleave
// in serial execution order). The group reconstructs it exactly:
//
//   - Sequential phases (setup, between Run calls): every shard engine
//     draws seqs directly from the group's shared counter, so setup
//     scheduling is trivially identical to serial.
//   - During a window, shard s hands out provisional seqs base + k
//     (base = group counter frozen at the window start, k = the
//     shard's schedule-call count this window). It journals how many
//     calls each executed event made, each cross-shard handoff and
//     each heap insert; a call that lands in a lane needs no entry.
//     Provisional seqs exceed all true seqs issued so far, and within
//     one shard their relative order equals the true relative order, so
//     the shard's own queue stays correctly ordered mid-window.
//     Cross-shard interleave cannot perturb a shard's in-window
//     ordering: an event executing in this window was either enqueued
//     before the window or scheduled by a same-shard parent (handoffs
//     always land in a later window).
//   - At the barrier the coordinator k-way merges the shards' journals
//     in global execution order — (at, true seq) of the *scheduling*
//     event — and replays the schedule calls against the real counter,
//     recording for each call the seq a serial engine would have issued
//     (trueOf[k-1] for the shard's k-th call) and staging each handoff
//     under its true seq for its destination. That is all the barrier
//     does.
//   - Each shard then fixes its own queue up (shard.fixup), on its own
//     goroutine, first thing in its next window and before any schedule
//     call: it rekeys its queued events provisional → true (proven
//     order-preserving, see Engine.rekey), then inserts its staged
//     handoffs. A shard idle in a window keeps that work pending — its
//     head for window selection is the earlier of its queue's head and
//     its earliest staged handoff — and the end of a Run fixes every
//     shard up, so sequential-phase code only ever sees true keys.
//
// Resolving a provisional journal key at the barrier is always
// possible: the scheduling parent belongs to the same shard and
// executed earlier in the same window, so its journal entry — and the
// true seq assigned while consuming it — precedes the child's entry in
// that shard's stream.
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// execRec journals one executed event that made at least one schedule
// call: its own key at execution time (seq may be provisional) and how
// many calls it made.
type execRec struct {
	at     Time
	seq    uint64
	nCalls uint64
}

// sendRec journals one cross-shard handoff: its call index k in the
// window (its provisional seq is base + k), and what the barrier stages
// for dst under the true seq.
type sendRec struct {
	k   uint64
	at  Time
	dst int32
	cb  callback
}

// handoff is a merged cross-shard event waiting to be inserted into
// its destination heap with its true global seq.
type handoff struct {
	at  Time
	seq uint64
	cb  callback
}

// spinChecks bounds how many times a window wait checks its word,
// yielding the processor in between, before it parks: enough to cover
// a barrier and the imbalance between two shards' windows, few enough
// that a worker whose shard idles for many windows soon stops burning
// a core.
const spinChecks = 1 << 14

// quit is the window limit that ends a worker.
const quit = Time(-1)

// runningShards counts the shards of every windowed run in progress in
// the process: a campaign runs several sharded cells at once, and the
// processors they compete for are the process's.
var runningShards atomic.Int64

// spin is how many checks a window wait makes before it parks.
// Spinning pays only while every running shard in the process can hold
// a processor; past that, a spinning wait takes the processor from a
// busy shard, so waits park at once.
func (g *ShardGroup) spin() int {
	if runningShards.Load() > g.procs {
		return 0
	}
	return spinChecks
}

// signal is a word one goroutine advances and another waits on: a
// worker's window epoch (coordinator → worker) or its done mark
// (worker → coordinator). The waiter spins on it and parks only past
// its spin bound, so a window round trip normally costs no futex.
type signal struct {
	v      atomic.Uint64
	parked atomic.Bool   // the waiter is (about to be) blocked on wake
	wake   chan struct{} // capacity 1: the token that unparks the waiter
	_      [64]byte      // whatever follows starts on another cache line
}

// set advances the word to v and wakes the waiter if it parked.
func (s *signal) set(v uint64) {
	s.v.Store(v)
	s.notify()
}

// notify sends the wake token if the waiter has announced that it parks.
func (s *signal) notify() {
	if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

// await returns once the word reaches v: it checks up to spin times,
// yielding the processor in between, then parks until the word gets
// there.
//
// Parking is announced before the check that decides it, so a racing
// set either is seen by that check or sees the announcement and sends
// the token (both sides' atomics are sequentially consistent). Each
// announcement is taken by exactly one compare-and-swap — the waiter's,
// which sends nothing, or a setter's, which sends one token — and the
// waiter announces again only after taking that token, so at most one
// token is ever in flight and the capacity-1 channel never blocks set.
// A token only says the word moved, not that it reached v: a set of an
// earlier value, stalled between its store and its notify, can take
// the announcement of a later wait. So a token ends the wait only if
// the word has reached v; otherwise the waiter parks again.
func (s *signal) await(v uint64, spin int) {
	for range spin {
		if s.v.Load() >= v {
			return
		}
		runtime.Gosched()
	}
	for {
		s.parked.Store(true)
		if s.v.Load() >= v && s.parked.CompareAndSwap(true, false) {
			return
		}
		<-s.wake
		if s.v.Load() >= v {
			return
		}
	}
}

// shard is the per-engine view of a ShardGroup.
type shard struct {
	g   *ShardGroup
	idx int
	eng *Engine
	rng *RNG

	// Window state, owned by whichever goroutine runs the shard's window
	// and by the coordinator during a barrier; the epoch and done words
	// order the handoff between them.
	inWindow bool
	base     uint64    // group counter when the last busy window began
	k        uint64    // schedule calls made in that window
	execLog  []execRec // executed events that scheduled something
	sends    []sendRec // the window's handoffs, in call order
	heapLog  []handle  // the window's heap inserts and timer re-arms
	panicked any       // callback panic captured for the coordinator

	// Barrier state, written by the coordinator; trueOf and staged are
	// the fixup the shard applies at the start of its next window.
	execPos  int
	sendPos  int
	trueOf   []uint64  // trueOf[k-1] = true seq of the window's call k
	staged   []handoff // merged handoffs destined for this shard
	stagedAt Time      // earliest staged handoff, never if none
	head     Time      // earliest pending work this iteration, never if none

	// Worker handoff, coordinator-owned apart from the words: live is
	// whether this run started the shard's worker, epoch the last window
	// posted to it and limit that window's bound (or quit).
	live  bool
	epoch uint64
	limit Time
	_     [64]byte
	post  signal // epoch, coordinator → worker
	done  signal // last epoch finished, worker → coordinator
}

// never is later than any event: the head of an empty queue.
const never = Time(1<<63 - 1)

// nextSeq issues the next sequence number for a schedule call on this
// shard: provisional during a window, drawn from the group's shared
// counter otherwise.
func (sh *shard) nextSeq() uint64 {
	if sh.inWindow {
		sh.k++
		return sh.base + sh.k
	}
	sh.g.counter++
	return sh.g.counter
}

// noteHeap journals an in-window heap insert or timer re-arm so the
// shard's next fixup can rekey its cell through the slot.
func (sh *shard) noteHeap(h handle) {
	if sh.inWindow {
		sh.heapLog = append(sh.heapLog, h)
	}
}

// fixup applies the barriers' verdict to the shard's own queue: rekey
// what its last busy window scheduled to true seqs, then insert the
// handoffs staged for it since — rekeying first, so every comparison
// an insert makes is between true keys.
func (sh *shard) fixup() {
	if sh.k > 0 {
		sh.eng.rekey(sh.base, sh.trueOf, sh.heapLog)
	}
	for _, h := range sh.staged {
		sh.eng.heapInsert(h.at, h.seq, h.cb)
	}
	// Don't pin dead closures or arguments in the reused backing arrays.
	clear(sh.staged)
	clear(sh.sends)
	sh.staged = sh.staged[:0]
	sh.sends = sh.sends[:0]
	sh.heapLog = sh.heapLog[:0]
	sh.trueOf = sh.trueOf[:0]
	sh.stagedAt = never
	sh.k = 0
}

// runOne executes one window on the shard, fixup first, capturing a
// callback panic so the coordinator can re-raise it after the barrier
// instead of killing the process from a worker goroutine.
func (sh *shard) runOne(limit Time) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	sh.fixup()
	sh.base = sh.g.counter
	sh.eng.runWindow(limit)
}

// work is a worker goroutine: wait for the next epoch, run the window
// it posts, publish done; until quit. epoch is the last one posted
// before the worker started.
func (sh *shard) work(epoch uint64) {
	for {
		epoch++
		sh.post.await(epoch, sh.g.spin())
		if sh.limit == quit {
			sh.done.set(epoch)
			return
		}
		sh.runOne(sh.limit)
		sh.done.set(epoch)
	}
}

// dispatch posts the window bounded by limit (or quit) to sh's worker.
func (sh *shard) dispatch(limit Time) {
	sh.limit = limit
	sh.epoch++
	sh.post.set(sh.epoch)
}

// ShardGroup coordinates n shard Engines so that their union behaves
// bit-identically to a single serial Engine. Construct with
// NewShardGroup, wire components to the per-shard engines (Shard), use
// Send for cross-shard scheduling, and drive the whole group with
// Run/RunAll. The group is not reentrant and, like Engine, not safe
// for concurrent use — except Stop, which may be called from any
// goroutine.
type ShardGroup struct {
	shards    []*shard
	lookahead Time
	counter   uint64 // true global schedule-order counter
	now       Time
	running   bool
	procs     int64 // GOMAXPROCS when the run in progress started
	stop      atomic.Bool
	hooks     []func() // run at the end of every barrier (OnBarrier)
}

// NewShardGroup returns a group of n engines synchronized with the
// given conservative lookahead: every cross-shard Send must have delay
// >= lookahead. Per-shard RNG streams are derived deterministically
// from seed and the shard index. n == 1 is the serial run behind the
// group API: its one engine stays a lone Engine (no shard pointer, no
// windows, no journaling), Run/RunAll/Stop forward to it and
// Now/Executed/Pending read through to it, so driving the group and
// driving Shard(0) directly are interchangeable.
func NewShardGroup(n int, lookahead Time, seed uint64) *ShardGroup {
	if n < 1 {
		panic("sim: NewShardGroup with n < 1")
	}
	if lookahead <= 0 && n > 1 {
		panic("sim: NewShardGroup with non-positive lookahead")
	}
	g := &ShardGroup{shards: make([]*shard, n), lookahead: lookahead}
	root := NewRNG(seed)
	for i := range g.shards {
		sh := &shard{g: g, idx: i, eng: NewEngine(), rng: root.Fork(), stagedAt: never}
		if n > 1 {
			sh.eng.sh = sh
			sh.post.wake = make(chan struct{}, 1)
			sh.done.wake = make(chan struct{}, 1)
		}
		g.shards[i] = sh
	}
	return g
}

// GroupOf views a lone engine as a ShardGroup of one, for code that is
// written against the group API but handed a bare Engine. The engine is
// untouched, so the caller may keep driving it directly. RNG(0) is the
// seed-0 stream.
func GroupOf(e *Engine) *ShardGroup {
	if e.sh != nil {
		panic("sim: GroupOf on a shard-owned engine")
	}
	g := &ShardGroup{}
	g.shards = []*shard{{g: g, eng: e, rng: NewRNG(0).Fork()}}
	return g
}

// OnBarrier registers fn to run on the coordinator at the end of every
// window barrier, every worker idle, so fn may touch any shard's
// component state. It must not schedule, and must not read queue keys:
// the shards' fixups are still pending. A group of one has no
// barriers: fn never runs.
func (g *ShardGroup) OnBarrier(fn func()) { g.hooks = append(g.hooks, fn) }

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Lookahead returns the group's conservative lookahead.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Shard returns shard i's engine. Components living on shard i must
// schedule only on this engine (or cross-shard via Send).
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i].eng }

// RNG returns shard i's private random stream.
func (g *ShardGroup) RNG(i int) *RNG { return g.shards[i].rng }

// Now returns the group's current simulated time.
func (g *ShardGroup) Now() Time {
	if len(g.shards) == 1 {
		return g.shards[0].eng.now
	}
	return g.now
}

// Running reports whether a windowed run is in progress (never, for a
// group of one). Control-plane callers use it to reject mid-run
// mutation of state that shards read without synchronization (e.g.
// fabric link status).
func (g *ShardGroup) Running() bool { return g.running }

// Executed returns the total number of events executed across shards.
func (g *ShardGroup) Executed() uint64 {
	var n uint64
	for _, sh := range g.shards {
		n += sh.eng.Executed
	}
	return n
}

// Pending returns the total number of queued events across shards.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, sh := range g.shards {
		n += sh.eng.Pending()
	}
	return n
}

// Stop makes the in-progress Run/RunAll return at the next window
// barrier (so the executed prefix is a clean serial prefix), or the
// next Run a no-op if none is in progress. Safe from any goroutine.
func (g *ShardGroup) Stop() {
	if len(g.shards) == 1 {
		g.shards[0].eng.Stop()
		return
	}
	g.stop.Store(true)
}

// Send schedules fn on shard dst after delay, from code running on
// src. Same-shard sends are plain schedules. Cross-shard sends during
// a window must respect the lookahead (delay >= Lookahead) — that
// bound is what makes the window safe to run in parallel.
func (g *ShardGroup) Send(src *Engine, dst int, delay Time, fn func()) {
	if fn == nil {
		panic("sim: Send with nil fn")
	}
	g.send(src, dst, delay, callback{fn: fn})
}

// SendArg is Send in the argument-carrying event form: fn(arg) runs on
// shard dst after delay. A caller that binds fn once and passes the
// per-event datum in arg (a fabric pipe and its arriving packets) builds
// no closure per event, same-engine or cross-shard — the journal and the
// barrier carry arg beside fn.
//
//prestolint:noalloc
func (g *ShardGroup) SendArg(src *Engine, dst int, delay Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: SendArg with nil fn")
	}
	g.send(src, dst, delay, callback{afn: fn, arg: arg})
}

func (g *ShardGroup) send(src *Engine, dst int, delay Time, cb callback) {
	if dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: Send to invalid shard %d of %d", dst, len(g.shards)))
	}
	if src == g.shards[dst].eng {
		src.at(src.now+max(delay, 0), cb)
		return
	}
	sh := src.sh
	if sh == nil || sh.g != g {
		panic("sim: Send from an engine outside this group")
	}
	if !sh.inWindow {
		// Sequential phase: clocks are aligned, and nextSeq on the
		// destination draws from the shared counter — identical to a
		// serial Schedule.
		g.shards[dst].eng.at(src.now+delay, cb)
		return
	}
	if delay < g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard Send with delay %v below lookahead %v", delay, g.lookahead))
	}
	// Consume a provisional seq (a serial engine's Schedule would have
	// consumed one here) and journal the handoff; the barrier assigns
	// the true seq and stages it for dst.
	sh.k++
	sh.sends = append(sh.sends, sendRec{k: sh.k, at: src.now + delay, dst: int32(dst), cb: cb})
}

// Run executes events in global timestamp order until all queues drain
// past until, Stop is called, or the clock would pass until. Events at
// exactly until still run, and the clock advances to until when not
// stopped — the same contract as Engine.Run.
func (g *ShardGroup) Run(until Time) Time {
	if len(g.shards) == 1 {
		return g.shards[0].eng.Run(until)
	}
	stopped := g.runWindows(until)
	if g.now < until && !stopped {
		g.now = until
	}
	g.align()
	return g.now
}

// RunAll executes events until every shard's queue drains or Stop is
// called, returning the time of the last executed event.
func (g *ShardGroup) RunAll() Time {
	if len(g.shards) == 1 {
		return g.shards[0].eng.RunAll()
	}
	const forever = Time(1<<62 - 1)
	g.runWindows(forever)
	g.align()
	return g.now
}

// align moves every shard clock to the group clock so that sequential-
// phase scheduling (which mixes engines) sees one coherent time.
func (g *ShardGroup) align() {
	for _, sh := range g.shards {
		if sh.eng.now < g.now {
			sh.eng.now = g.now
		}
	}
}

// runWindows is the coordinator loop: pick the window [T, T+L), run it
// on every shard that has work in it — the first of them on this
// goroutine, the rest in parallel on their workers — then merge
// journals at the barrier. Returns whether the run was stopped.
func (g *ShardGroup) runWindows(until Time) bool {
	if g.running {
		panic("sim: ShardGroup.Run called reentrantly")
	}
	g.running = true
	defer func() { g.running = false }()

	g.procs = int64(runtime.GOMAXPROCS(0))
	runningShards.Add(int64(len(g.shards)))
	defer func() {
		for _, sh := range g.shards {
			if sh.live {
				// A Run leaves no goroutine behind.
				sh.dispatch(quit)
				sh.done.await(sh.epoch, g.spin())
				sh.live = false
			}
		}
		runningShards.Add(-int64(len(g.shards)))
		for _, sh := range g.shards {
			sh.inWindow = false
			sh.fixup()
		}
	}()
	for _, sh := range g.shards {
		sh.inWindow = true
	}

	for {
		if g.stop.Load() {
			g.stop.Store(false)
			return true
		}
		// T = earliest pending work anywhere; the window is [T, T+L).
		t := never
		for _, sh := range g.shards {
			sh.head = min(sh.eng.peekAt(), sh.stagedAt)
			t = min(t, sh.head)
		}
		if t > until {
			return false
		}
		limit := t + g.lookahead
		if limit > until+1 {
			// Engine.Run's bound is inclusive; runWindow's is strict.
			limit = until + 1
		}

		// The first busy shard runs here, the others on their workers,
		// started the first time this run needs them. Journaling stays
		// on either way — its calls still consume seqs that the barrier
		// turns into true ones.
		var inline *shard
		for _, sh := range g.shards {
			if sh.head >= limit {
				continue
			}
			if inline == nil {
				inline = sh
				continue
			}
			if !sh.live {
				sh.live = true
				go sh.work(sh.epoch)
			}
			sh.dispatch(limit)
		}
		inline.runOne(limit)
		for _, sh := range g.shards {
			if sh.live {
				// An idle worker is already done with its last epoch.
				sh.done.await(sh.epoch, g.spin())
			}
		}
		g.barrier()
		for _, sh := range g.shards {
			if sh.panicked != nil {
				r := sh.panicked
				sh.panicked = nil
				panic(r)
			}
			if sh.eng.now > g.now {
				g.now = sh.eng.now
			}
			// An engine-level Stop from a callback stops the group at
			// this barrier, mirroring serial Stop-at-next-event.
			if sh.eng.stopped.Load() {
				sh.eng.stopped.Store(false)
				g.stop.Store(true)
			}
		}
	}
}

// barrier merges the shards' window journals in global execution order
// and replays their schedule calls against the true counter: each
// call's true seq goes to its shard's trueOf, and each handoff is
// staged for its destination. The queues are left to each shard's next
// fixup. Runs on the coordinator with all workers idle.
func (g *ShardGroup) barrier() {
	base := g.counter
	for {
		// K-way merge step: pick the journaled event that executed
		// earliest in global order. A provisional head key resolves
		// through trueOf — its same-shard parent was merged earlier.
		best := -1
		var bestAt Time
		var bestSeq uint64
		for i, sh := range g.shards {
			if sh.execPos >= len(sh.execLog) {
				continue
			}
			rec := sh.execLog[sh.execPos]
			seq := rec.seq
			if seq > base {
				seq = sh.trueOf[seq-base-1]
			}
			if best < 0 || rec.at < bestAt || (rec.at == bestAt && seq < bestSeq) {
				best, bestAt, bestSeq = i, rec.at, seq
			}
		}
		if best < 0 {
			break
		}
		sh := g.shards[best]
		rec := sh.execLog[sh.execPos]
		sh.execPos++
		for c := uint64(0); c < rec.nCalls; c++ {
			g.counter++
			sh.trueOf = append(sh.trueOf, g.counter)
			if sh.sendPos < len(sh.sends) && sh.sends[sh.sendPos].k == uint64(len(sh.trueOf)) {
				s := &sh.sends[sh.sendPos]
				d := g.shards[s.dst]
				d.staged = append(d.staged, handoff{at: s.at, seq: g.counter, cb: s.cb})
				d.stagedAt = min(d.stagedAt, s.at)
				sh.sendPos++
			}
		}
	}
	for _, sh := range g.shards {
		sh.execLog = sh.execLog[:0]
		sh.execPos, sh.sendPos = 0, 0
	}
	for _, fn := range g.hooks {
		fn()
	}
}
