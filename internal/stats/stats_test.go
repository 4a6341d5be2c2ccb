package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// 1..10000 uniformly: pX should be close to X% of 10000.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := q * 10000
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("q%.3f = %.1f, want %.1f (±3%%)", q, got, want)
		}
	}
	if h.Count() != 10000 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Mean()-5000.5) > 0.01 {
		t.Fatalf("mean %f", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 10000 {
		t.Fatalf("min/max %f/%f", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("q%.1f of single sample = %f", q, got)
		}
	}
}

// TestHistogramZeroAndNegative: non-positive samples are counted apart
// from bucket 0's (1/1.02, 1], and a quantile landing on them answers 0.
func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(10)
	if h.Count() != 3 {
		t.Fatal("all samples must be recorded")
	}
	if h.Min() != -5 {
		t.Fatalf("min %f", h.Min())
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("p100 over {-5,0,10}: got %g, want 10", got)
	}
	for _, q := range []float64{0, 0.5} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("q%g over {-5,0,10}: got %g, want 0", q, got)
		}
	}
	u := NewHistogram()
	for _, v := range []float64{0, 1, 1, 100} {
		u.Observe(v)
	}
	if got := u.Quantile(0.5); math.Abs(got-1) > 0.01 {
		t.Fatalf("p50 over {0,1,1,100}: got %g, want ~1", got)
	}
}

// TestSketchZeroBucket: zero samples sit in the histogram's non-positive
// count, so a rank landing there answers 0 while the top rank still reads
// the positive sample within the bucket bound.
func TestSketchZeroBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	h.Observe(100)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("p50 over {0,0,100}: got %g, want 0", got)
	}
	if got := h.Quantile(1); math.Abs(got-100)/100 > 0.01 {
		t.Errorf("p100 over {0,0,100}: got %g", got)
	}
}

// TestHistogramCountAbove: the over-threshold counter is exact away from
// bucket boundaries.
func TestHistogramCountAbove(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v) * 100)
	}
	// Threshold midway through the range, far from any single bucket's
	// width at gamma = 1.02.
	got := h.CountAbove(50050)
	if math.Abs(float64(got)-500) > 10 {
		t.Errorf("CountAbove(50050) = %d, want ~500", got)
	}
	if h.CountAbove(-1) != 1000 || h.CountAbove(2e9) != 0 {
		t.Errorf("extremes: %d / %d", h.CountAbove(-1), h.CountAbove(2e9))
	}

	// Sub-unity metrics (rates, fractions) land in negative-index
	// buckets; CountAbove(0) must still count every positive sample.
	frac := NewHistogram()
	for _, v := range []float64{0, 0.25, 0.5, 0.97, 3} {
		frac.Observe(v)
	}
	if got := frac.CountAbove(0); got != 4 {
		t.Errorf("CountAbove(0) over {0, 0.25, 0.5, 0.97, 3} = %d, want 4", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 500; i++ {
		a.Observe(float64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != 1000 {
		t.Fatalf("merged count %d", a.Count())
	}
	got := a.Quantile(0.5)
	if math.Abs(got-500)/500 > 0.05 {
		t.Fatalf("merged median %f", got)
	}
	a.Merge(nil) // no-op
	if a.Count() != 1000 {
		t.Fatal("nil merge changed count")
	}
}

// TestHistogramSinceWindowQuantiles pins a window's quantiles to the
// midpoint bound of a whole histogram: 100 samples of 5000 observed after
// a Clone must read within sqrt(gamma) of 5000 at p50 and p99, as the
// histogram of those samples alone does (a window used to answer its
// bucket's upper bound, 5089.5).
func TestHistogramSinceWindowQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	snap := h.Clone()
	for i := 0; i < 100; i++ {
		h.Observe(5000)
	}
	w := h.Since(snap)
	for _, q := range []float64{0.5, 0.99} {
		if r := w.Quantile(q) / 5000; r > math.Sqrt(gamma) || r < 1/math.Sqrt(gamma) {
			t.Errorf("window q=%g = %g, want within sqrt(%g) of 5000", q, w.Quantile(q), gamma)
		}
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(90e6) // 90us in ps
	s := h.Summary(1e6, "us")
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "pause", Interval: 1}
	for _, v := range []float64{0, 5, 2, 8, 1} {
		s.Record(v)
	}
	if want := []float64{0, 5, 2, 8, 1}; !slices.Equal(s.Samples, want) {
		t.Fatalf("samples %v, want %v", s.Samples, want)
	}
	if got := s.Sparkline(0); len([]rune(got)) != 5 {
		t.Fatalf("sparkline %q", got)
	}
	if got := s.Sparkline(3); len([]rune(got)) != 3 {
		t.Fatalf("downsampled sparkline %q", got)
	}
}

func TestSeriesSparklineKeepsSpikes(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		s.Record(0)
	}
	s.Samples[50] = 100 // single spike
	got := s.Sparkline(10)
	found := false
	for _, r := range got {
		if r == '█' {
			found = true
		}
	}
	if !found {
		t.Fatalf("spike lost in downsampling: %q", got)
	}
}

// Property: quantile is within gamma-bounded relative error for any
// positive sample set.
func TestQuantileBoundProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r%1000000) + 1
			h.Observe(vals[i])
		}
		got := h.Quantile(1.0)
		max := 0.0
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		return got == max // q=1 clamps to exact max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(float64(r) + 1)
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileErrorBound checks the documented contract: with
// gamma = 1.02 buckets, any reported quantile is its bucket's geometric
// midpoint, within a factor sqrt(gamma) of the true sample quantile —
// across distributions spanning many decades, not just uniform ones.
func TestHistogramQuantileErrorBound(t *testing.T) {
	bound := math.Sqrt(gamma) * (1 + 1e-9)
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		// Log-uniform over 6 decades: nanoseconds to milliseconds.
		"loguniform": func() float64 { return math.Pow(10, rng.Float64()*6) },
		// Exponential with a heavy tail.
		"exponential": func() float64 { return rng.ExpFloat64() * 1e4 },
	}
	for name, draw := range dists {
		h := NewHistogram()
		samples := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw()
			samples = append(samples, v)
			h.Observe(v)
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q*float64(len(samples)))) - 1
			if rank < 0 {
				rank = 0
			}
			truth := samples[rank]
			got := h.Quantile(q)
			ratio := got / truth
			if ratio < 1/bound || ratio > bound {
				t.Errorf("%s q%.3f: got %.4g, true %.4g (ratio %.4f outside [1/%.4f, %.4f])",
					name, q, got, truth, ratio, bound, bound)
			}
		}
	}
}
