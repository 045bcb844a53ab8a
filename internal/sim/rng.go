package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** by Blackman & Vigna). Every source of randomness in the
// simulator must be derived from one seeded RNG so that runs are
// reproducible; math/rand's global state is never used.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from seed via SplitMix64 so that even
// small or similar seeds produce well-mixed streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to expand the seed into four non-zero state words.
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Fork returns a new RNG whose stream is independent of (but
// deterministically derived from) r. Use it to give each component its
// own stream so adding events to one component does not perturb another.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inverse transform sampling (deterministic, no rejection loop).
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	if u >= 1 {
		u = 1 - 1e-16
	}
	return -math.Log(1 - u)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1 (Box–Muller, deterministic).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = 1e-16
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Duration returns a uniform Time in [0, d). It panics if d <= 0.
func (r *RNG) Duration(d Time) Time {
	return Time(r.Int63n(int64(d)))
}
