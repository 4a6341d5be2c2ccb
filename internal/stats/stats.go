// Package stats provides the measurement primitives the monitoring system
// and the experiment harnesses share: streaming log-bucketed histograms
// for latency percentiles, windowed counters for pause-frame and traffic
// time series, and simple rate/goodput accounting.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a streaming histogram with logarithmic buckets, suitable
// for latency distributions spanning nanoseconds to seconds. Buckets
// grow by a fixed factor gamma = 1.02, so any reported quantile is
// within one bucket of the true value: relative error < 2%.
type Histogram struct {
	gamma   float64
	logG    float64
	counts  map[int]uint64
	total   uint64
	sum     float64
	min     float64
	max     float64
	hasData bool
}

// NewHistogram returns an empty histogram with gamma = 1.02 buckets
// (< 2% relative quantile error).
func NewHistogram() *Histogram {
	g := 1.02
	return &Histogram{gamma: g, logG: math.Log(g), counts: make(map[int]uint64)}
}

// Observe records a sample. Non-positive samples are clamped into the
// smallest bucket (latencies are always positive; zero can occur for
// same-host loopback).
func (h *Histogram) Observe(v float64) {
	idx := 0
	if v > 0 {
		idx = int(math.Ceil(math.Log(v) / h.logG))
	}
	h.counts[idx]++
	h.total++
	h.sum += v
	if !h.hasData || v < h.min {
		h.min = v
	}
	if !h.hasData || v > h.max {
		h.max = v
	}
	h.hasData = true
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

// Quantile returns an estimate of the q-quantile (q in [0,1]). It returns
// 0 for an empty histogram.
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
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank >= h.total {
		return h.max
	}
	var cum uint64
	for _, i := range idxs {
		cum += h.counts[i]
		if cum >= rank {
			if i == 0 {
				return h.min
			}
			// Bucket upper bound gamma^i; return geometric midpoint.
			up := math.Pow(h.gamma, float64(i))
			lo := up / h.gamma
			v := math.Sqrt(up * lo)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Percentile is shorthand for Quantile(p/100).
func (h *Histogram) Percentile(p float64) float64 { return h.Quantile(p / 100) }

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if o.gamma != h.gamma {
		panic("stats: merging histograms with different gamma")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if !h.hasData || o.min < h.min {
		h.min = o.min
	}
	if !h.hasData || o.max > h.max {
		h.max = o.max
	}
	h.hasData = true
}

// Clone returns an independent copy of h — the snapshot a windowed
// comparison (rollout health gates) takes before more samples arrive.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		gamma: h.gamma, logG: h.logG,
		counts: make(map[int]uint64, len(h.counts)),
		total:  h.total, sum: h.sum,
		min: h.min, max: h.max, hasData: h.hasData,
	}
	for i, n := range h.counts {
		c.counts[i] = n
	}
	return c
}

// Since returns the samples h has accumulated beyond the earlier
// snapshot prev (taken with Clone from this same histogram): a
// bucket-wise difference. Min/max of the window are approximated by the
// window's occupied bucket bounds; quantiles are exact to bucket
// resolution, which is what windowed gating needs.
func (h *Histogram) Since(prev *Histogram) *Histogram {
	if prev == nil {
		return h.Clone()
	}
	if prev.gamma != h.gamma {
		panic("stats: diffing histograms with different gamma")
	}
	w := NewHistogram()
	for i, n := range h.counts {
		d := n - prev.counts[i]
		if d == 0 {
			continue
		}
		w.counts[i] = d
		w.total += d
		v := math.Pow(w.gamma, float64(i))
		w.sum += v * float64(d)
		if !w.hasData || v < w.min {
			w.min = v
		}
		if !w.hasData || v > w.max {
			w.max = v
		}
		w.hasData = true
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

// CDF returns (value, cumulative fraction) points for plotting, one per
// occupied bucket in ascending order.
func (h *Histogram) CDF() (xs, ys []float64) {
	if h.total == 0 {
		return nil, nil
	}
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var cum uint64
	for _, i := range idxs {
		cum += h.counts[i]
		v := math.Pow(h.gamma, float64(i))
		if v > h.max {
			v = h.max
		}
		if v < h.min {
			v = h.min
		}
		xs = append(xs, v)
		ys = append(ys, float64(cum)/float64(h.total))
	}
	return xs, ys
}

// Counter is a monotonically increasing counter with optional windowed
// sampling into a time series (the shape of the paper's "pause frames per
// 5 minutes" plots).
type Counter struct {
	value uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.value += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.value++ }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.value }

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

// MeanStd returns the sample mean and standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
