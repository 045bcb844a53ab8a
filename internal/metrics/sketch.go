// Quantile sketches: a DDSketch-style mergeable summary with
// relative-error-bounded quantiles in O(buckets) memory. Dist keeps
// every sample of one run; the sketch (Dist.Sketch) is what crosses
// replicas, jobs and artifacts: a few hundred logarithmic buckets that
// keep every quantile within a guaranteed relative error of the exact
// answer.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultSketchAlpha is the relative accuracy used when callers do not
// choose one: quantile estimates are within ±1% of an exact sample at
// the queried rank.
const DefaultSketchAlpha = 0.01

// Sketch is a mergeable quantile summary with bounded relative error
// (DDSketch-style logarithmic buckets). For every quantile q,
// Quantile(q) returns a value v̂ with |v̂ - v| <= Alpha()*|v| where v is
// an exact sample at q's rank — for any input, using one bucket
// counter per distinct power of gamma=(1+α)/(1-α) the samples span.
//
// Sum, mean, min, max, and counts are tracked exactly; only quantile
// values are approximate. Sketches with equal Alpha merge losslessly:
// merging is commutative and associative, and a merge of shards equals
// the sketch of the concatenated stream.
//
// The zero value is not ready to use; call NewSketch. A nil *Sketch is
// tolerated by its read-only methods (they return zeros).
type Sketch struct {
	alpha    float64 // relative accuracy bound in (0,1)
	gamma    float64 // (1+alpha)/(1-alpha)
	logGamma float64 // cached log(gamma)

	pos  map[int]uint64 // bucket key -> count, values > 0
	neg  map[int]uint64 // bucket key -> count of -value, values < 0
	zero uint64         // exact zeros

	n          uint64
	sum, sumsq float64
	min, max   float64
}

// NewSketch returns an empty sketch with the given relative accuracy
// alpha in (0, 1); out-of-range values fall back to
// DefaultSketchAlpha.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		logGamma: math.Log(gamma),
		pos:      make(map[int]uint64),
		neg:      make(map[int]uint64),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// Alpha returns the sketch's relative accuracy bound.
func (s *Sketch) Alpha() float64 {
	if s == nil {
		return 0
	}
	return s.alpha
}

// N returns the number of samples added.
func (s *Sketch) N() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

// Sum returns the exact sum of all samples.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Mean returns the exact arithmetic mean, or 0 if empty.
func (s *Sketch) Mean() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Stddev returns the exact population standard deviation, or 0 if
// empty.
func (s *Sketch) Stddev() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	mean := s.sum / float64(s.n)
	v := s.sumsq/float64(s.n) - mean*mean
	if v < 0 {
		v = 0 // float cancellation on near-constant streams
	}
	return math.Sqrt(v)
}

// Min returns the exact smallest sample, or 0 if empty.
func (s *Sketch) Min() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact largest sample, or 0 if empty.
func (s *Sketch) Max() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.max
}

// Buckets returns the number of occupied buckets — the sketch's memory
// footprint in counters (plus the zero bucket when occupied).
func (s *Sketch) Buckets() int {
	if s == nil {
		return 0
	}
	b := len(s.pos) + len(s.neg)
	if s.zero > 0 {
		b++
	}
	return b
}

// key maps a positive value to its logarithmic bucket: the unique k
// with gamma^(k-1) < v <= gamma^k.
func (s *Sketch) key(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

// bucketValue reconstructs the representative value of bucket k:
// 2*gamma^k/(gamma+1), within alpha relative error of every value the
// bucket covers.
func (s *Sketch) bucketValue(k int) float64 {
	return 2 * math.Exp(float64(k)*s.logGamma) / (s.gamma + 1)
}

// Add folds one sample into the sketch. NaN and ±Inf are rejected
// (returning false) so a single bad measurement cannot poison the
// summary.
func (s *Sketch) Add(v float64) bool { return s.AddN(v, 1) }

// AddN folds n copies of one sample into the sketch.
func (s *Sketch) AddN(v float64, n uint64) bool {
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	switch {
	case v > 0:
		s.pos[s.key(v)] += n
	case v < 0:
		s.neg[s.key(-v)] += n
	default:
		s.zero += n
	}
	s.n += n
	fn := float64(n)
	s.sum += v * fn
	s.sumsq += v * v * fn
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	return true
}

// Merge folds o into s. Both sketches must share the same alpha —
// bucket boundaries are alpha-derived, so cross-alpha merges cannot
// preserve the error bound. Merging is commutative and associative; a
// nil or empty o is a no-op.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("metrics: merging sketches with different alpha (%g vs %g)", s.alpha, o.alpha)
	}
	for k, c := range o.pos {
		s.pos[k] += c
	}
	for k, c := range o.neg {
		s.neg[k] += c
	}
	s.zero += o.zero
	s.n += o.n
	s.sum += o.sum
	s.sumsq += o.sumsq
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	return nil
}

// Rebucket returns a copy of the sketch re-bucketed at a different
// relative accuracy, so sketches built at mismatched alphas can still
// be merged. Counts, sum, mean, min, and max carry over exactly; each
// bucket's representative value is re-hashed into the target grid, so
// the quantile error bound of the result loosens to roughly
// s.Alpha() + alpha (the two grids' errors compound). With the same
// alpha (or an out-of-range one) this is just Clone.
func (s *Sketch) Rebucket(alpha float64) *Sketch {
	if s == nil {
		return nil
	}
	if alpha == s.alpha || !(alpha > 0 && alpha < 1) {
		return s.Clone()
	}
	r := NewSketch(alpha)
	for k, c := range s.pos {
		r.pos[r.key(s.bucketValue(k))] += c
	}
	for k, c := range s.neg {
		r.neg[r.key(s.bucketValue(k))] += c
	}
	r.zero = s.zero
	r.n = s.n
	r.sum = s.sum
	r.sumsq = s.sumsq
	r.min = s.min
	r.max = s.max
	return r
}

// Clone returns an independent deep copy (nil for a nil receiver).
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := *s
	c.pos = make(map[int]uint64, len(s.pos))
	for k, v := range s.pos {
		c.pos[k] = v
	}
	c.neg = make(map[int]uint64, len(s.neg))
	for k, v := range s.neg {
		c.neg[k] = v
	}
	return &c
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) with
// relative error at most Alpha() against an exact sample at rank
// floor(q*(N-1)). Returns 0 if empty; q is clamped to [0,1].
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(q * float64(s.n-1)) // 0-based target rank

	// Walk the value order: negatives from most-negative (largest |v|
	// bucket key) to least, then zeros, then positives ascending.
	cum := uint64(0)
	for _, k := range s.sortedKeys(s.neg, true) {
		cum += s.neg[k]
		if rank < cum {
			return clamp(-s.bucketValue(k), s.min, s.max)
		}
	}
	cum += s.zero
	if rank < cum {
		return 0
	}
	for _, k := range s.sortedKeys(s.pos, false) {
		cum += s.pos[k]
		if rank < cum {
			return clamp(s.bucketValue(k), s.min, s.max)
		}
	}
	return s.max
}

// Percentile is Quantile with p in [0,100] — the Dist-compatible
// spelling.
func (s *Sketch) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// FractionBelow returns the approximate fraction of samples <= v.
func (s *Sketch) FractionBelow(v float64) float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	var cum uint64
	switch {
	case v >= 0:
		for _, c := range s.neg {
			cum += c
		}
		cum += s.zero
		if v > 0 {
			kv := s.key(v)
			for k, c := range s.pos {
				if k <= kv {
					cum += c
				}
			}
		}
	default:
		kv := s.key(-v)
		for k, c := range s.neg {
			if k >= kv {
				cum += c
			}
		}
	}
	return float64(cum) / float64(s.n)
}

// sortedKeys returns m's keys sorted ascending (or descending), so
// quantile walks and serialization never depend on map iteration
// order.
func (s *Sketch) sortedKeys(m map[int]uint64, desc bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if desc {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	return keys
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sketchJSON is the wire form ("presto-sketch/1"): buckets as sorted
// [key, count] pairs so the encoding is deterministic and
// round-trippable — campaign artifacts and the golden gate can carry
// sketches and re-query them.
type sketchJSON struct {
	Schema string     `json:"schema"`
	Alpha  float64    `json:"alpha"`
	N      uint64     `json:"n"`
	Sum    float64    `json:"sum"`
	SumSq  float64    `json:"sumsq"`
	Min    *float64   `json:"min,omitempty"`
	Max    *float64   `json:"max,omitempty"`
	Zero   uint64     `json:"zero,omitempty"`
	Pos    [][2]int64 `json:"pos,omitempty"`
	Neg    [][2]int64 `json:"neg,omitempty"`
}

const sketchSchema = "presto-sketch/1"

func bucketPairs(s *Sketch, m map[int]uint64) [][2]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make([][2]int64, 0, len(m))
	for _, k := range s.sortedKeys(m, false) {
		out = append(out, [2]int64{int64(k), int64(m[k])})
	}
	return out
}

// MarshalJSON encodes the sketch deterministically (buckets sorted by
// key).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	j := sketchJSON{
		Schema: sketchSchema,
		Alpha:  s.alpha,
		N:      s.n,
		Sum:    s.sum,
		SumSq:  s.sumsq,
		Zero:   s.zero,
		Pos:    bucketPairs(s, s.pos),
		Neg:    bucketPairs(s, s.neg),
	}
	if s.n > 0 {
		mn, mx := s.min, s.max
		j.Min, j.Max = &mn, &mx
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a sketch previously produced by MarshalJSON.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var j sketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Schema != sketchSchema {
		return fmt.Errorf("metrics: sketch schema %q, want %q", j.Schema, sketchSchema)
	}
	if !(j.Alpha > 0 && j.Alpha < 1) {
		return fmt.Errorf("metrics: sketch alpha %g out of (0,1)", j.Alpha)
	}
	fresh := NewSketch(j.Alpha)
	*s = *fresh
	s.n = j.N
	s.sum = j.Sum
	s.sumsq = j.SumSq
	s.zero = j.Zero
	if j.Min != nil {
		s.min = *j.Min
	}
	if j.Max != nil {
		s.max = *j.Max
	}
	load := func(dst map[int]uint64, pairs [][2]int64) error {
		for _, p := range pairs {
			if p[1] < 0 {
				return fmt.Errorf("metrics: malformed sketch bucket %v", p)
			}
			dst[int(p[0])] += uint64(p[1])
		}
		return nil
	}
	if err := load(s.pos, j.Pos); err != nil {
		return err
	}
	if err := load(s.neg, j.Neg); err != nil {
		return err
	}
	// Cross-field consistency: a hand-edited or truncated artifact must
	// fail loudly here, not yield silently wrong quantiles later.
	var mass uint64
	for _, c := range s.pos {
		mass += c
	}
	for _, c := range s.neg {
		mass += c
	}
	mass += s.zero
	if mass != s.n {
		return fmt.Errorf("metrics: sketch n=%d disagrees with bucket mass %d", s.n, mass)
	}
	if s.n > 0 {
		if j.Min == nil || j.Max == nil {
			return fmt.Errorf("metrics: sketch with n=%d is missing min/max", s.n)
		}
		if !(s.min <= s.max) {
			return fmt.Errorf("metrics: sketch min %g > max %g", s.min, s.max)
		}
	}
	return nil
}
