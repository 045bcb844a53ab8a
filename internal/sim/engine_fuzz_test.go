package sim

import (
	"fmt"
	"testing"
)

// Two fuzz targets. FuzzEngineHeapOrder drives the real engine and the
// heap-only reference (reference_test.go) through one script and
// compares everything observable. FuzzShardedEngine, below, compares a
// ShardGroup with a serial engine.

// ---- sharded engine vs serial engine ----
//
// The second fuzz target drives the same multi-domain script through a
// single serial Engine and through ShardGroups of 1, 2, 4, and 7
// shards. Domains (think: pods) map onto shards round-robin; each
// domain logs (time, rng draw) at every firing, so any divergence in
// event order, tie-breaking, or RNG stream interleave shows up as a
// log or final-state mismatch. Cross-domain sends use delays >= the
// lookahead, exactly the bound the fabric's cross-pod links guarantee.

const (
	shardFuzzDomains   = 8
	shardFuzzLookahead = Time(100)
)

// shardEnv abstracts one run — serial or sharded — over a fixed set of
// domains for driveShardScript. timer makes a timer on domain d's
// engine; only d's callbacks arm or stop it (timers stay shard-local).
type shardEnv struct {
	schedule func(src, dst int, delay Time, fn func())
	timer    func(d int, fn func()) *Timer
	rng      func(d int) *RNG
	now      func(d int) Time
	runAll   func()
	group    *ShardGroup // the run's group; nil on the serial engine
}

// driveShardScript interprets data as per-domain schedule/send/timer
// scripts (bytes dealt round-robin so every domain has its own cursor
// and budget — callbacks touch only state owned by their domain's
// shard, keeping the parallel run race-free by construction). It
// returns the per-domain (time, draw) firing logs.
func driveShardScript(data []byte, env *shardEnv) [][]uint64 {
	const d0 = shardFuzzDomains
	scripts := make([][]byte, d0)
	for i, b := range data {
		scripts[i%d0] = append(scripts[i%d0], b)
	}
	pos := make([]int, d0)
	next := func(d int) byte {
		if pos[d] >= len(scripts[d]) {
			return 0
		}
		b := scripts[d][pos[d]]
		pos[d]++
		return b
	}

	logs := make([][]uint64, d0)
	budget := make([]int, d0)
	timers := make([][]*Timer, d0)
	for d := range budget {
		budget[d] = 300
	}
	var mk func(d int) func()
	mk = func(d int) func() {
		return func() {
			logs[d] = append(logs[d], uint64(env.now(d)), env.rng(d).Uint64())
			if budget[d] <= 0 {
				return
			}
			op := next(d)
			if op&1 != 0 {
				budget[d]--
				env.schedule(d, d, shardFuzzDelay(next(d)), mk(d))
			}
			if op&2 != 0 {
				budget[d]--
				dst := int(next(d)) % d0
				env.schedule(d, dst, shardFuzzLookahead+Time(next(d)&63), mk(dst))
			}
			if op&4 != 0 {
				// Arm a new timer, re-arm an earlier one, or stop one
				// and log whether it was armed.
				b := next(d)
				ts := timers[d]
				switch {
				case b&1 != 0 && (b&2 != 0 || len(ts) == 0) && len(ts) < 16:
					budget[d]--
					t := env.timer(d, mk(d))
					timers[d] = append(ts, t)
					t.Reset(shardFuzzDelay(next(d)))
				case len(ts) == 0:
				case b&1 != 0:
					budget[d]--
					ts[int(b>>2)%len(ts)].Reset(shardFuzzDelay(next(d)))
				default:
					logs[d] = append(logs[d], uint64(env.now(d)), uint64(b2i(ts[int(b>>2)%len(ts)].Stop())))
				}
			}
		}
	}
	// Root events are seeded in the sequential phase, in the same order
	// for every engine shape.
	for d := 0; d < d0; d++ {
		n := int(next(d))%3 + 1
		for i := 0; i < n; i++ {
			env.schedule(d, d, Time(next(d)&31), mk(d))
		}
	}
	env.runAll()
	return logs
}

// shardFuzzDelay turns a script byte into a local delay: mostly one of
// the recurring delays below the lookahead, so that lanes form on every
// shard and the fixup's rekey lands on lane cells as well as heap cells
// (irregular delays and timers), otherwise an irregular one.
func shardFuzzDelay(b byte) Time {
	if b&3 != 0 {
		return fuzzDelays[int(b>>2)%5]
	}
	return Time(b >> 2)
}

// shardRunResult captures everything the bit-identity claim covers:
// per-domain event logs, the post-run state of every RNG stream, the
// executed-event count, and the final clock.
type shardRunResult struct {
	logs     [][]uint64
	finals   []uint64
	executed uint64
	now      Time
}

// runShardScriptSerial is the reference: one serial Engine, with the
// same per-shard RNG stream derivation a ShardGroup of numShards would
// use (domain d draws from stream d % numShards).
func runShardScriptSerial(data []byte, numShards int, seed uint64) shardRunResult {
	return runSerial(numShards, seed, func(env *shardEnv) [][]uint64 { return driveShardScript(data, env) })
}

// runShardScriptGroup runs the same script on a ShardGroup.
func runShardScriptGroup(data []byte, numShards int, seed uint64) shardRunResult {
	return runGroup(numShards, seed, func(env *shardEnv) [][]uint64 { return driveShardScript(data, env) })
}

// runSerial runs drive on one serial Engine (see runShardScriptSerial).
func runSerial(numShards int, seed uint64, drive func(*shardEnv) [][]uint64) shardRunResult {
	eng := NewEngine()
	root := NewRNG(seed)
	streams := make([]*RNG, numShards)
	for i := range streams {
		streams[i] = root.Fork()
	}
	env := &shardEnv{
		schedule: func(src, dst int, delay Time, fn func()) { eng.Schedule(delay, fn) },
		timer:    func(d int, fn func()) *Timer { return NewTimer(eng, fn) },
		rng:      func(d int) *RNG { return streams[d%numShards] },
		now:      func(d int) Time { return eng.Now() },
		runAll:   func() { eng.RunAll() },
	}
	logs := drive(env)
	res := shardRunResult{logs: logs, executed: eng.Executed, now: eng.Now()}
	for _, r := range streams {
		res.finals = append(res.finals, r.Uint64())
	}
	return res
}

func callArg(fn any) { fn.(func())() }

// runGroup runs drive on a ShardGroup of numShards, domain d on shard
// d % numShards.
func runGroup(numShards int, seed uint64, drive func(*shardEnv) [][]uint64) shardRunResult {
	g := NewShardGroup(numShards, shardFuzzLookahead, seed)
	shardOf := func(d int) int { return d % numShards }
	env := &shardEnv{
		schedule: func(src, dst int, delay Time, fn func()) {
			se, de := shardOf(src), shardOf(dst)
			if se != de {
				// Odd delays ride the argument-carrying form (the argument
				// is the callback itself), so the journal, the sends FIFO
				// and the barrier carry both forms in one window.
				if delay&1 != 0 {
					g.SendArg(g.Shard(se), de, delay, callArg, fn)
				} else {
					g.Send(g.Shard(se), de, delay, fn)
				}
				return
			}
			g.Shard(de).Schedule(delay, fn)
		},
		timer:  func(d int, fn func()) *Timer { return NewTimer(g.Shard(shardOf(d)), fn) },
		rng:    func(d int) *RNG { return g.RNG(shardOf(d)) },
		now:    func(d int) Time { return g.Shard(shardOf(d)).Now() },
		runAll: func() { g.RunAll() },
		group:  g,
	}
	logs := drive(env)
	res := shardRunResult{logs: logs, executed: g.Executed(), now: g.Now()}
	for i := 0; i < numShards; i++ {
		res.finals = append(res.finals, g.RNG(i).Uint64())
	}
	return res
}

// diffShardResults returns a description of the first divergence
// between two runs, or "" when they are bit-identical.
func diffShardResults(want, got shardRunResult) string {
	for d := range want.logs {
		w, g := want.logs[d], got.logs[d]
		if len(w) != len(g) {
			return fmt.Sprintf("domain %d: %d records vs %d", d, len(w)/2, len(g)/2)
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Sprintf("domain %d record %d: serial (t=%d draw=%#x) vs sharded (t=%d draw=%#x)",
					d, i/2, w[i&^1], w[i|1], g[i&^1], g[i|1])
			}
		}
	}
	for i := range want.finals {
		if want.finals[i] != got.finals[i] {
			return fmt.Sprintf("stream %d final state diverged", i)
		}
	}
	if want.executed != got.executed {
		return fmt.Sprintf("executed %d events vs %d", want.executed, got.executed)
	}
	if want.now != got.now {
		return fmt.Sprintf("final clock %v vs %v", want.now, got.now)
	}
	return ""
}

// idleShardSeed is a script that leaves a shard idle while work for it
// is pending (at 2 and 4 shards, the shards holding only odd domains).
// Even domains tick every 16 ns and, at every 7th tick, hand a packet
// to the next odd domain 163 ns ahead — so the handoff waits staged
// through a window in which its destination has nothing to run. Odd
// domains only answer handoffs, each with one local event 120 ns out.
func idleShardSeed() []byte {
	var scripts [shardFuzzDomains][]byte
	for d := range scripts {
		s := []byte{0, 0} // one root event, at t = 0
		for k := 0; k < 48; k++ {
			switch {
			case d%2 == 1:
				s = append(s, 0, 1, 17) // the root's or a local's op: none; a handoff's: local after 120
			case k%7 == 6:
				s = append(s, 3, 13, byte(d+1), 63) // tick after 16, hand off after 163
			default:
				s = append(s, 1, 13) // tick after 16
			}
		}
		scripts[d] = s
	}
	var data []byte
	for i := 0; ; i++ {
		more := false
		for d := range scripts {
			var b byte
			if i < len(scripts[d]) {
				b, more = scripts[d][i], true
			}
			data = append(data, b)
		}
		if !more {
			return data
		}
	}
}

// FuzzShardedEngine asserts that a ShardGroup of 1, 2, 4, or 7 shards
// produces byte-identical per-domain event logs, final RNG states,
// executed counts, and final clocks to a serial engine, under random
// schedules with cross-shard sends and timers armed, re-armed and
// stopped from inside callbacks.
func FuzzShardedEngine(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{255, 254, 253, 3, 3, 3, 7, 7, 7, 1, 0, 255, 9, 9, 2, 2, 4, 4, 6, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// Long, and every op both schedules locally on a recurring delay and
	// sends: each shard's delays earn lanes and the barrier rekeys cells
	// queued in them.
	long := make([]byte, 4096)
	for i := range long {
		long[i] = byte(i*37) | 3
	}
	f.Add(long)
	f.Add(idleShardSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range []int{1, 2, 4, 7} {
			want := runShardScriptSerial(data, shards, 42)
			got := runShardScriptGroup(data, shards, 42)
			if d := diffShardResults(want, got); d != "" {
				t.Fatalf("%d shards: sharded run diverged from serial: %s", shards, d)
			}
		}
	})
}

// FuzzEngineHeapOrder asserts that the engine — arena, 4-ary heap and
// fixed-delay lanes — is indistinguishable from the heap-only reference
// under driveScript's interleaving of schedules, timer arms, re-arms and
// stops, timer storms and run stops.
func FuzzEngineHeapOrder(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{12, 3, 3, 3, 3, 1, 4, 2, 9, 7, 7, 0, 1, 1, 2, 2})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	// Long enough for lanes to form, fill and change hands.
	long := make([]byte, 4096)
	for i := range long {
		long[i] = byte(i*131 + i>>3)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		got := driveScript(data, realScript{NewEngine(), t})
		want := driveScript(data, refScript{&refEngine{}})
		if len(got) != len(want) {
			t.Fatalf("logged %d values, reference logged %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				lo := max(i-4, 0)
				t.Fatalf("divergence at log index %d: engine ...%v, reference ...%v", i, got[lo:i+1], want[lo:i+1])
			}
		}
	})
}
