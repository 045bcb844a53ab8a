package packet

import "testing"

func TestPoolReusesAndCounts(t *testing.T) {
	var pl Pool
	a := pl.Get()
	*a = Packet{Seq: 7, Sack: []SackBlock{{1, 2}}}
	sack := a.Sack
	pl.Put(a)
	if a.Sack != nil {
		t.Fatal("Put kept the SACK list: the next user could write through a slice a segment still reads")
	}
	b := pl.Get()
	if b != a {
		t.Fatal("Get after Put allocated instead of reusing the free packet")
	}
	*b = Packet{Seq: 9}
	if sack[0] != (SackBlock{1, 2}) {
		t.Fatal("reuse wrote through the previous user's SACK storage")
	}
	pl.Put(b)
	if pl.Gets != 2 || pl.Puts != 2 || pl.News != 1 || pl.Free() != 1 {
		t.Fatalf("gets %d puts %d news %d free %d, want 2 2 1 1", pl.Gets, pl.Puts, pl.News, pl.Free())
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of one packet did not panic")
		}
	}()
	pl.Put(p)
}

// TestPoolAdoptsForeignPackets: a packet the pool never issued — a
// test's literal, a tap's Clone of a pooled packet, a packet another
// pool issued — is accepted, and comes back out as a fresh one.
func TestPoolAdoptsForeignPackets(t *testing.T) {
	var a, b Pool
	lit := &Packet{Seq: 1}
	a.Put(lit)
	p := b.Get()
	b.Put(p)
	c := p.Clone() // cloned while on b's free list: the copy is not
	a.Put(c)
	if got := a.Get(); got != c {
		t.Fatal("LIFO: the last Put should be the next Get")
	}
	a.Put(b.Get()) // issued by b, dies into a
	if a.Free() != 2 || b.Free() != 0 {
		t.Fatalf("free lists %d and %d, want 2 and 0", a.Free(), b.Free())
	}
}

func TestPoolMoveTo(t *testing.T) {
	var a, b Pool
	var ps []*Packet
	for i := 0; i < 10; i++ {
		ps = append(ps, a.Get())
	}
	for _, p := range ps {
		a.Put(p)
	}
	a.MoveTo(&b, 4)
	if a.Free() != 6 || b.Free() != 4 {
		t.Fatalf("after MoveTo(4): %d and %d free, want 6 and 4", a.Free(), b.Free())
	}
	seen := map[*Packet]bool{}
	for a.Free() > 0 {
		seen[a.Get()] = true
	}
	for b.Free() > 0 {
		seen[b.Get()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("%d distinct packets after levelling, want 10 (none lost, none shared)", len(seen))
	}
}

// TestPoolTrimsIdleSurplus: after a burst the free list holds the
// burst's high-water mark; with the pool then turning over a handful of
// packets, each trim gives back half of what no Get reached, and a pool
// whose whole list is in use gives back nothing.
func TestPoolTrimsIdleSurplus(t *testing.T) {
	var pl Pool
	burst := make([]*Packet, 10_000)
	for i := range burst {
		burst[i] = pl.Get()
	}
	for _, p := range burst {
		pl.Put(p)
	}
	steady := func(inFlight, puts int) {
		held := make([]*Packet, 0, inFlight)
		for i := 0; i < puts; i++ {
			if len(held) == inFlight {
				pl.Put(held[0])
				held = held[1:]
			}
			held = append(held, pl.Get())
		}
		for _, p := range held {
			pl.Put(p)
		}
	}
	steady(100, 20*trimEvery)
	if pl.Free() > 200 {
		t.Fatalf("%d packets still pooled after 20 trims with 100 in flight; the burst's surplus was kept", pl.Free())
	}
	news := pl.News
	steady(100, 20*trimEvery)
	if pl.News != news {
		t.Fatalf("steady turnover allocated %d packets: trim cut into what is in use", pl.News-news)
	}
}
