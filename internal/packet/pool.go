package packet

// Pool is a free list of packets: the arena one engine shard's senders
// draw from and every place a packet dies on that shard returns to, so
// the steady-state packet path produces no garbage. One shard owns it;
// pools trade packets only at the window barrier (fabric.Network).
// Whoever is handed a *Packet owns it until it passes it on or Puts it;
// a Handler that wants to keep one past its call must Clone it.
type Pool struct {
	free []*Packet // LIFO, so the next Get reuses the warmest packet
	// low is the shortest the list has been since the last trim: the
	// packets below it sat unused the whole time.
	low int

	// Gets and Puts count the calls, News the Gets that had to allocate.
	// A drained fabric fed only from its pools has Σ Gets == Σ Puts.
	Gets, Puts, News uint64
}

// Get returns a packet for the caller to overwrite whole (`*p =
// Packet{...}`): its fields are its last user's, except Sack.
//
//prestolint:noalloc
func (pl *Pool) Get() *Packet {
	pl.Gets++
	n := len(pl.free)
	if n == 0 {
		pl.News++
		//prestolint:allow hotalloc -- free-list high-water growth: a packet is allocated only when more are in flight than the list has kept (TestSteadyStateAllocsPerPacket pins the steady state)
		return new(Packet)
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	pl.low = min(pl.low, n-1)
	p.pooled = false
	return p
}

// Put returns a dead packet to the free list; the caller must not touch
// it afterwards. A packet the pool never issued (a test's literal, a
// clone) is adopted; one already on a free list is a bug and panics.
//
//prestolint:noalloc
func (pl *Pool) Put(p *Packet) {
	if p.pooled {
		panic("packet: Put of a packet that is already in a pool")
	}
	p.pooled = true
	// The SACK list's backing array belongs to the segment the packet
	// was cut from and rides on into the segment GRO builds: drop the
	// reference, so reuse never writes through it.
	p.Sack = nil
	pl.Puts++
	//prestolint:allow hotalloc -- free-list growth is amortized: the backing array doubles to the in-flight high-water mark and is reused from then on
	pl.free = append(pl.free, p)
	if pl.Puts%trimEvery == 0 {
		pl.trim()
	}
}

// trimEvery is how many Puts pass between trims (the pool has no clock).
// A measured trade: the shorter, the sooner a slow start's overshoot
// stops counting as live heap — pod-shards2 peak RSS, parent 12.8 MB, is
// 14.5 MB untrimmed, 13.7 at 16384, 13.4 at 8192 and at 2048 — and the
// more often a congestion-window trough is taken for surplus and
// allocated again: elephants-presto allocs_per_pkt is 0.239 untrimmed,
// 0.244 at 16384, 0.250 at 8192, 0.278 at 4096.
const trimEvery = 8192

// trim gives the collector half of the packets no Get reached since the
// last trim, the oldest. Otherwise the list stays at the run's in-flight
// high-water mark for ever: live heap, which the collector doubles.
//
//prestolint:noalloc
func (pl *Pool) trim() {
	pl.drop(pl.low / 2)
	pl.low = len(pl.free)
}

// drop removes the n oldest packets from the list.
func (pl *Pool) drop(n int) {
	k := copy(pl.free, pl.free[n:])
	clear(pl.free[k:])
	pl.free = pl.free[:k]
}

// Free returns the number of packets on the free list.
func (pl *Pool) Free() int { return len(pl.free) }

// MoveTo hands the n oldest free packets to dst: how the fabric levels
// its shards' pools at the window barrier. Oldest first, so packets a
// receiving shard never reaches move on before a trim takes them for
// surplus.
//
//prestolint:noalloc
func (pl *Pool) MoveTo(dst *Pool, n int) {
	//prestolint:allow hotalloc -- the receiving list grows to its high-water mark once; one append per barrier that levels, not per packet
	dst.free = append(dst.free, pl.free[:n]...)
	pl.drop(n)
	pl.low = max(pl.low-n, 0)
}
