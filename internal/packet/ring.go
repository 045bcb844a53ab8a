package packet

// Ring is a growable circular FIFO of packets — the NIC's RX
// descriptor ring and every fabric pipe's output queue. Push and Pop
// are allocation-free in steady state: the backing array only grows,
// by doubling, to the high-water mark. The zero value is an empty ring.
type Ring struct {
	buf  []*Packet // power-of-two capacity
	head int
	n    int
}

// Len returns the number of queued packets.
func (r *Ring) Len() int { return r.n }

// Push appends p at the tail.
//
//prestolint:noalloc
func (r *Ring) Push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// Pop removes and returns the head packet. The ring must not be empty.
//
//prestolint:noalloc
func (r *Ring) Pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil // release the reference; the ring must not pin packets
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *Ring) grow() {
	cap2 := len(r.buf) * 2
	if cap2 == 0 {
		cap2 = 64
	}
	buf := make([]*Packet, cap2)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
