package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// adversarialSamples generates n samples engineered to stress the
// sketch's bucket mapping: ten orders of magnitude, heavy tails,
// exact duplicates, zeros, negatives, and denormal-adjacent tinies.
func adversarialSamples(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n)
	for len(out) < n {
		switch rng.Intn(8) {
		case 0: // log-uniform across ten decades
			out = append(out, math.Pow(10, rng.Float64()*10-5))
		case 1: // heavy tail (Pareto-ish)
			out = append(out, 1/math.Pow(rng.Float64()+1e-9, 2))
		case 2: // exact duplicates in a run
			v := rng.Float64() * 100
			for i := 0; i < 16 && len(out) < n; i++ {
				out = append(out, v)
			}
		case 3: // zeros
			out = append(out, 0)
		case 4: // negatives across decades
			out = append(out, -math.Pow(10, rng.Float64()*6-3))
		case 5: // near-identical cluster around 1.0 (bucket boundary stress)
			out = append(out, 1+rng.Float64()*1e-6)
		case 6: // tiny positives
			out = append(out, math.Pow(10, -rng.Float64()*30))
		default: // plain uniform
			out = append(out, rng.Float64()*1e4)
		}
	}
	return out[:n]
}

// relErr computes |got-want|/|want| (absolute when want == 0).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if want == 0 {
		return d
	}
	return d / math.Abs(want)
}

// TestSketchRelativeErrorBound is the headline property: on >= 1e6
// adversarial samples, every quantile estimate stays within the
// documented alpha of the exact sample at the same rank, while the
// sketch holds orders of magnitude fewer counters than samples.
func TestSketchRelativeErrorBound(t *testing.T) {
	const n = 1_000_000
	const alpha = 0.01
	samples := adversarialSamples(n, 1)

	s := NewSketch(alpha)
	exact := append([]float64(nil), samples...)
	for _, v := range samples {
		if !s.Add(v) {
			t.Fatalf("Add(%v) rejected a finite sample", v)
		}
	}
	sort.Float64s(exact)

	if s.N() != n {
		t.Fatalf("N = %d, want %d", s.N(), n)
	}
	if got := s.Buckets(); got > 5000 {
		t.Fatalf("sketch uses %d buckets for %d samples; memory bound broken", got, n)
	}

	for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999, 1} {
		rank := int(q * float64(n-1))
		want := exact[rank]
		got := s.Quantile(q)
		if re := relErr(got, want); re > alpha+1e-9 {
			t.Errorf("Quantile(%v) = %v, exact rank value %v, relative error %.4g > alpha %.4g",
				q, got, want, re, alpha)
		}
	}

	// Exact moments survive the sketching.
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if re := relErr(s.Sum(), sum); re > 1e-9 {
		t.Errorf("Sum drifted: %v vs %v", s.Sum(), sum)
	}
	if s.Min() != exact[0] || s.Max() != exact[n-1] {
		t.Errorf("Min/Max = %v/%v, want %v/%v", s.Min(), s.Max(), exact[0], exact[n-1])
	}
}

// TestSketchMergeCommutativeAssociative checks merge(a,b) == merge(b,a)
// and merge(merge(a,b),c) == merge(a,merge(b,c)) on every quantile.
func TestSketchMergeCommutativeAssociative(t *testing.T) {
	const alpha = 0.02
	build := func(seed int64, n int) *Sketch {
		s := NewSketch(alpha)
		for _, v := range adversarialSamples(n, seed) {
			s.Add(v)
		}
		return s
	}
	a, b, c := build(10, 40_000), build(11, 25_000), build(12, 33_000)

	ab := a.Clone()
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := b.Clone()
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	abc1 := ab.Clone()
	if err := abc1.Merge(c); err != nil {
		t.Fatal(err)
	}
	bc := b.Clone()
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	abc2 := a.Clone()
	if err := abc2.Merge(bc); err != nil {
		t.Fatal(err)
	}

	qs := []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1}
	for _, q := range qs {
		if x, y := ab.Quantile(q), ba.Quantile(q); x != y {
			t.Errorf("commutativity: q=%v: %v vs %v", q, x, y)
		}
		if x, y := abc1.Quantile(q), abc2.Quantile(q); x != y {
			t.Errorf("associativity: q=%v: %v vs %v", q, x, y)
		}
	}
	if ab.N() != a.N()+b.N() {
		t.Errorf("merged N = %d, want %d", ab.N(), a.N()+b.N())
	}
}

// TestSketchShardedMergeEqualsSingleStream: splitting one stream across
// k shards and merging must give bit-identical quantiles to sketching
// the stream directly — the property the campaign runner relies on to
// merge per-replica sketches.
func TestSketchShardedMergeEqualsSingleStream(t *testing.T) {
	const alpha = 0.01
	samples := adversarialSamples(200_000, 7)

	single := NewSketch(alpha)
	for _, v := range samples {
		single.Add(v)
	}

	const shards = 7
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch(alpha)
	}
	for i, v := range samples {
		parts[i%shards].Add(v)
	}
	merged := NewSketch(alpha)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}

	if merged.N() != single.N() || merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Fatalf("shard merge lost counts or extremes")
	}
	for q := 0.0; q <= 1.0; q += 0.005 {
		if a, b := merged.Quantile(q), single.Quantile(q); a != b {
			t.Fatalf("q=%v: sharded %v != single-stream %v", q, a, b)
		}
	}
}

func TestSketchMergeAlphaMismatch(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alpha must error")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge should be a no-op: %v", err)
	}
	if err := a.Merge(NewSketch(0.5)); err != nil {
		t.Fatalf("empty merge should be a no-op regardless of alpha: %v", err)
	}
}

func TestSketchRejectsNonFinite(t *testing.T) {
	s := NewSketch(0.01)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if s.Add(v) {
			t.Errorf("Add(%v) accepted", v)
		}
	}
	if s.N() != 0 {
		t.Fatalf("non-finite samples counted: N=%d", s.N())
	}
	s.Add(1)
	if s.N() != 1 || s.Quantile(0.5) == 0 {
		t.Fatal("finite sample after rejects mishandled")
	}
}

// TestSketchJSONRoundTrip: marshal → unmarshal must preserve every
// quantile bit-identically and the encoding must be deterministic.
func TestSketchJSONRoundTrip(t *testing.T) {
	s := NewSketch(0.01)
	for _, v := range adversarialSamples(50_000, 3) {
		s.Add(v)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("sketch JSON encoding is not deterministic")
	}

	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != s.N() || back.Sum() != s.Sum() || back.Min() != s.Min() || back.Max() != s.Max() {
		t.Fatalf("round trip lost exact stats: N %d/%d sum %v/%v", back.N(), s.N(), back.Sum(), s.Sum())
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if a, b := back.Quantile(q), s.Quantile(q); a != b {
			t.Fatalf("q=%v diverged after round trip: %v vs %v", q, a, b)
		}
	}
	// A decoded sketch must keep merging with live ones.
	if err := back.Merge(s); err != nil {
		t.Fatal(err)
	}
	if back.N() != 2*s.N() {
		t.Fatal("decoded sketch cannot merge")
	}
}

func TestSketchJSONRejectsBadInput(t *testing.T) {
	var s Sketch
	for _, bad := range []string{
		`{"schema":"other/1","alpha":0.01}`,
		`{"schema":"presto-sketch/1","alpha":0}`,
		`{"schema":"presto-sketch/1","alpha":1.5}`,
		`{"schema":"presto-sketch/1","alpha":0.01,"pos":[[1,-2]]}`,
		// n disagrees with zero + bucket mass.
		`{"schema":"presto-sketch/1","alpha":0.01,"n":5,"min":1,"max":2,"pos":[[1,2]]}`,
		// min > max.
		`{"schema":"presto-sketch/1","alpha":0.01,"n":2,"min":3,"max":1,"pos":[[1,2]]}`,
		// Non-empty but missing min/max.
		`{"schema":"presto-sketch/1","alpha":0.01,"n":2,"pos":[[1,2]]}`,
	} {
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("accepted bad sketch %s", bad)
		}
	}
}

func TestSketchEmptyAndNil(t *testing.T) {
	var nilS *Sketch
	if nilS.N() != 0 || nilS.Quantile(0.5) != 0 || nilS.Mean() != 0 || nilS.Buckets() != 0 {
		t.Fatal("nil sketch reads must return zeros")
	}
	s := NewSketch(0.01)
	if s.Quantile(0.5) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sketch reads must return zeros")
	}
}

func TestSketchNegativeOnly(t *testing.T) {
	s := NewSketch(0.01)
	exact := make([]float64, 0, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		v := -math.Pow(10, rng.Float64()*4-2)
		s.Add(v)
		exact = append(exact, v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		rank := int(q * float64(len(exact)-1))
		if re := relErr(s.Quantile(q), exact[rank]); re > 0.01+1e-9 {
			t.Errorf("negative-only q=%v relative error %.4g", q, re)
		}
	}
}

// TestSketchRebucket: re-bucketing to a different alpha must keep the
// exact stats bit-identical, keep quantiles within the compounded
// bound alpha_old + alpha_new, and make the result mergeable with
// sketches built natively at the target alpha.
func TestSketchRebucket(t *testing.T) {
	const from, to = 0.005, 0.02
	samples := adversarialSamples(100_000, 11)
	src := NewSketch(from)
	for _, v := range samples {
		src.Add(v)
	}
	r := src.Rebucket(to)
	if r.Alpha() != to {
		t.Fatalf("Alpha = %v, want %v", r.Alpha(), to)
	}
	if r.N() != src.N() || r.Sum() != src.Sum() || r.Min() != src.Min() || r.Max() != src.Max() {
		t.Fatal("exact stats drifted through Rebucket")
	}
	exact := append([]float64(nil), samples...)
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		rank := int(q * float64(len(exact)-1))
		if re := relErr(r.Quantile(q), exact[rank]); re > from+to+1e-9 {
			t.Errorf("q=%v relative error %.4g > %.4g after rebucket", q, re, from+to)
		}
	}
	if err := NewSketch(to).Merge(r); err != nil {
		t.Fatalf("rebucketed sketch does not merge at target alpha: %v", err)
	}
	// Same (or invalid) alpha degenerates to an independent clone.
	c := src.Rebucket(from)
	c.Add(1)
	if c.N() != src.N()+1 || src.Quantile(0.5) != src.Rebucket(0).Quantile(0.5) {
		t.Fatal("same-alpha Rebucket must be an independent clone")
	}
	if (*Sketch)(nil).Rebucket(0.01) != nil {
		t.Fatal("nil Rebucket must be nil")
	}
}

// --- Dist and its sketch -------------------------------------------------

func TestDistAddRejectsNonFinite(t *testing.T) {
	var d Dist
	d.Add(3)
	d.Add(math.NaN())
	d.Add(math.Inf(1))
	d.Add(math.Inf(-1))
	d.Add(1)
	if d.N() != 2 {
		t.Fatalf("N = %d, want 2 (non-finite samples must be dropped)", d.N())
	}
	if d.Min() != 1 || d.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v, want 1/3", d.Min(), d.Max())
	}
	if got := d.Mean(); math.IsNaN(got) || got != 2 {
		t.Fatalf("Mean = %v, want 2 (NaN poisoned the mean)", got)
	}
	if got := d.Percentile(50); math.IsNaN(got) {
		t.Fatalf("Percentile(50) = NaN")
	}
}

func TestDistSketchAccessor(t *testing.T) {
	var d Dist
	if d.Sketch(0.01) != nil {
		t.Fatal("empty Dist sketch must be nil")
	}
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	s := d.Sketch(0.01)
	if s.N() != 100 || relErr(s.Quantile(0.5), 50) > 0.011 {
		t.Fatalf("derived sketch wrong: N=%d p50=%v", s.N(), s.Quantile(0.5))
	}
	// The result is a fresh sketch, not a view of the Dist.
	s.Add(1000)
	if d.N() != 100 || d.Max() != 100 {
		t.Fatal("Sketch() exposed live internal state")
	}
	// It is always built at the requested alpha, so it merges with
	// peers built at that alpha.
	var other Dist
	for i := 1; i <= 100; i++ {
		other.Add(float64(i))
	}
	if got := other.Sketch(0.05).Alpha(); got != 0.05 {
		t.Fatalf("Sketch(0.05) returned alpha %v", got)
	}
	if err := d.Sketch(0.01).Merge(other.Sketch(0.01)); err != nil {
		t.Fatalf("cross-Dist merge at a common alpha failed: %v", err)
	}
}

// --- benchmarks: sorted-flag caching and sketch throughput ------------

// BenchmarkDistPercentileCached proves repeated percentile queries on
// an unchanged Dist do not re-sort: with 1e6 samples a re-sort costs
// ~100ms while the cached path is a few ns.
func BenchmarkDistPercentileCached(b *testing.B) {
	var d Dist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		d.Add(rng.Float64())
	}
	d.Percentile(50) // prime the sort
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Percentile(99)
		d.Percentile(99.9)
		_ = d.CDF(16)
		_ = d.Max()
	}
}

// BenchmarkDistPercentileResort is the contrast case: an Add between
// queries invalidates the cache and forces a re-sort per iteration.
func BenchmarkDistPercentileResort(b *testing.B) {
	var d Dist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		d.Add(rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(rng.Float64())
		d.Percentile(99)
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s := NewSketch(0.01)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Pow(10, rng.Float64()*6-3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&4095])
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	s := NewSketch(0.01)
	for _, v := range adversarialSamples(1_000_000, 2) {
		s.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantile(0.99)
	}
}
