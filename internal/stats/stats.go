// Package stats provides the measurement primitives the monitoring system
// and the experiment harnesses share: a streaming log-bucketed histogram
// for latency percentiles and fixed-interval time series for pause-frame
// and traffic plots.
package stats

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
)

// gamma is the histogram bucket ratio: bucket i holds the positive
// samples in (gamma^(i-1), gamma^i].
const gamma = 1.02

var logGamma = math.Log(gamma)

// bucket returns the index of the bucket covering v > 0.
func bucket(v float64) int { return int(math.Ceil(math.Log(v) / logGamma)) }

// midpoint returns bucket i's geometric midpoint, gamma^(i-1/2): within
// a factor sqrt(gamma) of every value in the bucket.
func midpoint(i int) float64 {
	up := math.Pow(gamma, float64(i))
	return math.Sqrt(up * (up / gamma))
}

// Histogram is a streaming histogram with logarithmic buckets, suitable
// for latency distributions spanning nanoseconds to seconds. Buckets
// grow by a fixed factor gamma = 1.02 and a quantile reports its
// bucket's geometric midpoint, so it is within a factor sqrt(1.02) (<1%)
// of the true sample at its rank. Non-positive samples (same-host
// loopback) are counted apart and answer 0. Two histograms over
// disjoint samples merge by bucket addition into exactly the histogram
// of the pooled samples, which is how per-shard pingmesh RTTs fold.
type Histogram struct {
	counts map[int]uint64 // positive samples per bucket
	zero   uint64         // samples <= 0
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64)}
}

// Observe records a sample.
func (h *Histogram) Observe(v float64) {
	if v > 0 {
		h.counts[bucket(v)]++
	} else {
		h.zero++
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	h.sum += v
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (q in [0,1]): the sample at rank
// ceil(q·n), to bucket resolution. It returns 0 for an empty histogram
// and when that sample is non-positive, and the exact maximum at q = 1.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank <= h.zero {
		return 0
	}
	if rank >= h.total {
		return h.max
	}
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	cum := h.zero
	for _, i := range idxs {
		cum += h.counts[i]
		if cum >= rank {
			// Clamping into [min, max] only moves the estimate toward
			// the true sample.
			return min(max(midpoint(i), h.min), h.max)
		}
	}
	return h.max
}

// CountAbove returns how many samples exceed x, to bucket resolution:
// the samples sharing x's bucket count as above when x lies below the
// bucket's midpoint. Every positive sample exceeds 0, and every sample
// counts as above a negative x. The SLO engine reads it for "fraction
// of probes over target" objectives.
func (h *Histogram) CountAbove(x float64) uint64 {
	switch {
	case x < 0:
		return h.total
	case x == 0:
		return h.total - h.zero
	}
	var above uint64
	bx := bucket(x)
	for i, c := range h.counts {
		if i > bx || i == bx && x < midpoint(i) {
			above += c
		}
	}
	return above
}

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.total == 0 || o.max > h.max {
		h.max = o.max
	}
	h.zero += o.zero
	h.total += o.total
	h.sum += o.sum
}

// Clone returns an independent copy of h — the snapshot a windowed
// comparison (rollout health gates) takes before more samples arrive.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = maps.Clone(h.counts)
	return &c
}

// Since returns the samples h has accumulated beyond the earlier
// snapshot prev (taken with Clone from this same histogram): a
// bucket-wise difference. The window's samples are known only to their
// buckets, so its min, max and sum take each occupied bucket's geometric
// midpoint (0 for non-positive samples), and its quantiles are within
// sqrt(gamma) of the window's samples, like a whole histogram's.
func (h *Histogram) Since(prev *Histogram) *Histogram {
	if prev == nil {
		return h.Clone()
	}
	w := NewHistogram()
	w.zero = h.zero - prev.zero
	w.total = w.zero
	for i, n := range h.counts {
		d := n - prev.counts[i]
		if d == 0 {
			continue
		}
		w.counts[i] = d
		v := midpoint(i)
		w.sum += v * float64(d)
		if w.total == 0 || v < w.min {
			w.min = v
		}
		if w.total == 0 || v > w.max {
			w.max = v
		}
		w.total += d
	}
	return w
}

// Summary formats min/p50/p99/p99.9/max on one line using the given unit
// divisor and label (e.g. 1e6, "us" for picosecond latencies shown in
// microseconds).
func (h *Histogram) Summary(div float64, unit string) string {
	return fmt.Sprintf("n=%d min=%.1f%s p50=%.1f%s p99=%.1f%s p99.9=%.1f%s max=%.1f%s",
		h.total, h.min/div, unit, h.Quantile(0.50)/div, unit,
		h.Quantile(0.99)/div, unit, h.Quantile(0.999)/div, unit, h.max/div, unit)
}

// Series is a fixed-interval time series of counter deltas or gauge
// samples.
type Series struct {
	Name     string
	Interval float64 // seconds per sample
	Samples  []float64
}

// Record appends a sample.
func (s *Series) Record(v float64) { s.Samples = append(s.Samples, v) }

// Sparkline renders the series as an ASCII sparkline for terminal report
// output.
func (s *Series) Sparkline(width int) string {
	if len(s.Samples) == 0 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	samples := s.Samples
	if width > 0 && len(samples) > width {
		// Downsample by max within each window: spikes must stay visible.
		out := make([]float64, width)
		for i := range out {
			lo := i * len(samples) / width
			hi := (i + 1) * len(samples) / width
			if hi <= lo {
				hi = lo + 1
			}
			m := samples[lo]
			for _, v := range samples[lo:hi] {
				if v > m {
					m = v
				}
			}
			out[i] = m
		}
		samples = out
	}
	max := 0.0
	for _, v := range samples {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range samples {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(marks)-1))
		}
		b.WriteRune(marks[i])
	}
	return b.String()
}
