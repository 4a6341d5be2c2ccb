package stats

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// fuzzValues is the sample set FuzzHistogram observes from: negatives
// and 0 (the non-positive count), sub-unity values (negative bucket
// indices), bucket 0's (1/1.02, 1], bucket edges 1.02^k and the values
// either side of them, and picosecond latencies up to 1e12.
var fuzzValues = []float64{
	-1e6, -1, -1e-9, 0,
	1e-9, 0.25, 0.5, 1 / gamma, math.Nextafter(1/gamma, 2), 0.985, 0.99, 1,
	math.Nextafter(1, 2), 1.01, gamma, math.Pow(gamma, 2), math.Pow(gamma, 10),
	math.Nextafter(math.Pow(gamma, 10), 0), math.Nextafter(math.Pow(gamma, 10), math.Inf(1)),
	math.Pow(gamma, 100), math.Pow(gamma, 697), math.Pow(gamma, 1395),
	2, 100, 1e3, 4e6, 6e6, 85e9, 1e12,
}

// fuzzQuantiles are the ranks every FuzzHistogram step checks.
var fuzzQuantiles = []float64{0, 0.01, 0.5, 0.99, 0.999, 1}

// fuzzMaxOps caps one input's operations and fuzzMaxSamples the
// samples a Merge may leave in one histogram (alternate merges would
// otherwise double them), since every step sorts the reference.
const (
	fuzzMaxOps     = 256
	fuzzMaxSamples = 1024
)

// histOf builds the histogram of samples, one Observe each.
func histOf(samples []float64) *Histogram {
	h := NewHistogram()
	for _, v := range samples {
		h.Observe(v)
	}
	return h
}

// sameBuckets reports whether a and b hold the same bucket counts,
// non-positive count and total.
func sameBuckets(a, b *Histogram) bool {
	return a.total == b.total && a.zero == b.zero && maps.Equal(a.counts, b.counts)
}

// checkHist compares h against the samples it has seen, sorted: Count,
// Min and Max exactly, each fuzzQuantiles rank within the midpoint
// bound sqrt(gamma) of the sample at rank ceil(q·n) (0 when that sample
// is non-positive), and CountAbove at every fuzzValues threshold.
func checkHist(t *testing.T, step int, name string, h *Histogram, samples []float64) {
	t.Helper()
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	var lo, hi float64
	if n > 0 {
		lo, hi = s[0], s[n-1]
	}
	if h.Count() != uint64(n) || h.Min() != lo || h.Max() != hi {
		t.Fatalf("step %d %s: count/min/max %d/%g/%g, reference %d/%g/%g", step, name, h.Count(), h.Min(), h.Max(), n, lo, hi)
	}
	if n == 0 {
		return
	}
	bound := math.Sqrt(gamma) * (1 + 1e-9)
	for _, q := range fuzzQuantiles {
		rank := max(int(math.Ceil(q*float64(n))), 1)
		truth, got := s[rank-1], h.Quantile(q)
		if truth <= 0 {
			if got != 0 {
				t.Fatalf("step %d %s: q=%g = %g, want 0 for the non-positive sample %g", step, name, q, got, truth)
			}
			continue
		}
		if r := got / truth; !(r <= bound && r >= 1/bound) {
			t.Fatalf("step %d %s: q=%g = %g, sample at rank %d is %g (ratio %g)", step, name, q, got, rank, truth, r)
		}
	}
	above := func(x float64) uint64 {
		var c uint64
		for _, v := range s {
			if v > x {
				c++
			}
		}
		return c
	}
	for _, x := range fuzzValues {
		got := h.CountAbove(x)
		switch {
		case x < 0:
			if got != uint64(n) {
				t.Fatalf("step %d %s: CountAbove(%g) = %d, want every sample (%d)", step, name, x, got, n)
			}
		case x == 0:
			if want := above(0); got != want {
				t.Fatalf("step %d %s: CountAbove(0) = %d, reference %d", step, name, got, want)
			}
		default:
			if lo, hi := above(x*gamma), above(x/gamma); got < lo || got > hi {
				t.Fatalf("step %d %s: CountAbove(%g) = %d, outside the reference's [%d, %d]", step, name, x, got, lo, hi)
			}
		}
	}
}

// FuzzHistogram drives two histograms through Observe, Clone, Since and
// Merge, decoded two bytes per operation (the operation and histogram,
// then a fuzzValues index), and checks both against the sorted samples
// each has seen after every operation (see checkHist). A Merge must
// equal the histogram of the pooled samples, quantiles bit for bit, and
// a Since window must hold exactly the samples observed after the Clone
// it is taken against (every sample when none was taken).
func FuzzHistogram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hs := [2]*Histogram{NewHistogram(), NewHistogram()}
		var (
			ref     [2][]float64 // every sample each histogram has seen, in order
			snaps   [2]*Histogram
			snapLen [2]int // len(ref[i]) when snaps[i] was cloned
		)
		for step := 0; len(data) >= 2 && step < fuzzMaxOps; step, data = step+1, data[2:] {
			op, which, v := data[0]%4, int(data[0]>>2)&1, fuzzValues[int(data[1])%len(fuzzValues)]
			h := hs[which]
			switch op {
			case 0:
				h.Observe(v)
				ref[which] = append(ref[which], v)
			case 1:
				snaps[which], snapLen[which] = h.Clone(), len(ref[which])
				if c := snaps[which]; !sameBuckets(c, h) || c.min != h.min || c.max != h.max || c.sum != h.sum {
					t.Fatalf("step %d: clone %+v of %+v", step, c, h)
				}
			case 2:
				if c := snaps[which]; c != nil && c.Count() != uint64(snapLen[which]) {
					t.Fatalf("step %d: clone saw later samples: count %d, cloned at %d", step, c.Count(), snapLen[which])
				}
				w, want := h.Since(snaps[which]), histOf(ref[which][snapLen[which]:])
				if !sameBuckets(w, want) {
					t.Fatalf("step %d: Since = %d samples %v + %d non-positive, want %d samples %v + %d",
						step, w.total, w.counts, w.zero, want.total, want.counts, want.zero)
				}
			case 3:
				if len(ref[0])+len(ref[1]) > fuzzMaxSamples {
					break
				}
				h.Merge(hs[1-which])
				ref[which] = append(ref[which], ref[1-which]...)
				want := histOf(ref[which])
				if !sameBuckets(h, want) || h.min != want.min || h.max != want.max {
					t.Fatalf("step %d: merged %+v, pooled %+v", step, h, want)
				}
				for _, q := range fuzzQuantiles {
					if got, w := h.Quantile(q), want.Quantile(q); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("step %d: merged q=%g = %g, pooled %g", step, q, got, w)
					}
				}
			}
			checkHist(t, step, "h0", hs[0], ref[0])
			checkHist(t, step, "h1", hs[1], ref[1])
		}
	})
}
