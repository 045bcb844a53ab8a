package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.N() != 0 || d.Mean() != 0 || d.Percentile(50) != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty Dist should return zeros")
	}
	if d.CDF(10) != nil {
		t.Fatal("empty Dist CDF should be nil")
	}
}

func TestDistPercentiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); math.Abs(got-c.want) > 0.011 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestDistMeanMinMaxStddev(t *testing.T) {
	var d Dist
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Add(v)
	}
	if d.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", d.Mean())
	}
	if d.Min() != 2 || d.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", d.Min(), d.Max())
	}
	if d.Stddev() != 2 {
		t.Errorf("Stddev = %v, want 2", d.Stddev())
	}
}

func TestDistAddAfterQueryResorts(t *testing.T) {
	var d Dist
	d.Add(10)
	_ = d.Median()
	d.Add(1)
	if d.Min() != 1 {
		t.Fatal("Dist failed to re-sort after Add following a query")
	}
}

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

func TestDistCDFMonotonic(t *testing.T) {
	prop := func(vals []float64) bool {
		var d Dist
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
		}
		cdf := d.CDF(16)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
				return false
			}
		}
		if n := len(cdf); n > 0 && cdf[n-1].Fraction != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is bounded by min/max and monotone in p. The
// distribution under test is merged from two halves, and must equal
// the add-every-sample loop Merge replaces: same samples and a
// bit-equal Mean (same summation order).
func TestDistPercentileProperty(t *testing.T) {
	prop := func(vals []float64, a, b uint8) bool {
		var halves [2]Dist
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			halves[i%2].Add(v)
		}
		var d, loop Dist
		for i := range halves {
			d.Merge(&halves[i]) // first, while the half is still unsorted
			for _, v := range halves[i].Samples() {
				loop.Add(v)
			}
		}
		if math.Float64bits(d.Mean()) != math.Float64bits(loop.Mean()) {
			return false
		}
		got, want := d.Samples(), loop.Samples()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		if d.N() == 0 {
			return true
		}
		p1 := float64(a) / 255 * 100
		p2 := float64(b) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := d.Percentile(p1), d.Percentile(p2)
		return v1 <= v2 && v1 >= d.Min() && v2 <= d.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single hog of 4: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty: %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all zero: %v, want 1", got)
	}
}

// Property: Jain's index is within (0, 1] and scale-invariant.
func TestJainIndexProperty(t *testing.T) {
	prop := func(raw []uint16, scale uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			xs = append(xs, float64(v))
		}
		j := JainIndex(xs)
		if j <= 0 || j > 1+1e-12 {
			return false
		}
		k := float64(scale%10) + 0.5
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * k
		}
		return math.Abs(JainIndex(scaled)-j) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(1, 20)
	if s.N() != 2 || s.Mean() != 15 {
		t.Fatalf("Series N=%d mean=%v, want 2/15", s.N(), s.Mean())
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"Scheme", "Tput"}}
	tb.AddRow("ECMP", "5.7")
	tb.AddRow("Presto", "9.3")
	out := tb.String()
	if out == "" {
		t.Fatal("empty table output")
	}
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("table has %d lines, want 3:\n%s", lines, out)
	}
}

func TestDistSamplesSorted(t *testing.T) {
	var d Dist
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	if !sort.Float64sAreSorted(d.Samples()) {
		t.Fatal("Samples() not sorted")
	}
}

func TestRenderQuantileBars(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	out := RenderQuantileBars(&d, []float64{50, 99}, 20, "ms")
	if out == "" || len(out) < 20 {
		t.Fatalf("render too short: %q", out)
	}
	var empty Dist
	if RenderQuantileBars(&empty, []float64{50}, 20, "") != "(no samples)\n" {
		t.Fatal("empty dist render wrong")
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	var d Dist
	d.Add(3)
	d.Add(1)
	d.Add(2)
	s := d.Samples()
	s[0] = 999
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("mutating Samples() corrupted the distribution: min=%v, want 1", got)
	}
	if got := d.Samples()[0]; got != 1 {
		t.Fatalf("second Samples() call sees mutation: %v", got)
	}
}

func TestRenderQuantileBarsNegativeValues(t *testing.T) {
	var d Dist
	d.Add(-5)
	d.Add(-2)
	d.Add(3)
	// Must not panic (a negative percentile over a positive max used to
	// produce a negative strings.Repeat count).
	out := RenderQuantileBars(&d, []float64{50, 99}, 20, "ms")
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestRenderQuantileBarsAllNegative(t *testing.T) {
	var d Dist
	d.Add(-5)
	d.Add(-1)
	out := RenderQuantileBars(&d, []float64{50, 90, 99}, 20, "ms")
	if out == "" {
		t.Fatal("empty render")
	}
}

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
