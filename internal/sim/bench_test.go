package sim

import "testing"

// BenchmarkEngineDispatch measures one event — a Schedule and its
// dispatch — on the elephant fixed-delay mix: a 1.5 KB frame's
// serialisation (1.23 µs), an ACK's (68 ns), host propagation (1.5 µs)
// and fabric propagation (500 ns), 256 events in flight. Each in-flight
// chain cycles through the four delays, so all four ride lanes.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	mix := [...]Time{1230, 68, 1500, 500}
	left := 0
	for k := 0; k < 256; k++ {
		i := k
		var fn func()
		fn = func() {
			if left--; left == 0 {
				e.Stop()
			}
			i++
			e.Schedule(mix[i&3], fn)
		}
		e.Schedule(Time(k), fn)
	}
	left = 100_000 // warm up: lanes earned, rings at their steady size
	e.RunAll()
	left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkTimerReset measures what an ACK costs a TCP sender's timers:
// re-arming its RTO (200 ms) and its tail-loss probe (10 ms), round robin
// over 1,024 connections whose pairs are all armed, one ACK every 100 ns.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	const conns = 1024
	rto, pto := make([]*Timer, conns), make([]*Timer, conns)
	for c := range rto {
		rto[c], pto[c] = NewTimer(e, func() {}), NewTimer(e, func() {})
		rto[c].Reset(200 * Millisecond)
		pto[c].Reset(10 * Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.now += 100
		c := i % conns
		rto[c].Reset(200 * Millisecond)
		pto[c].Reset(10 * Millisecond)
	}
}
