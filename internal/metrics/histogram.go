package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram records float64 observations (typically latencies in seconds)
// in exponentially sized buckets, supporting approximate quantiles with a
// bounded relative error set by the bucket growth factor.
//
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	min     float64 // smallest representable observation
	growth  float64 // bucket width growth factor (>1)
	logG    float64
	counts  []uint64
	under   uint64 // observations below min
	total   uint64
	sum     float64
	maxSeen float64
	minSeen float64
}

// NewHistogram returns a histogram covering [min, +inf) with buckets whose
// upper bounds grow by factor growth (e.g. 1.1 for <=10% quantile error).
func NewHistogram(min, growth float64) *Histogram {
	if min <= 0 {
		panic("metrics: NewHistogram min must be positive")
	}
	if growth <= 1 {
		panic("metrics: NewHistogram growth must exceed 1")
	}
	return &Histogram{
		min:     min,
		growth:  growth,
		logG:    math.Log(growth),
		minSeen: math.Inf(1),
	}
}

// DefaultLatency returns a histogram tuned for request latencies: 100 µs
// floor with 5% bucket growth.
func DefaultLatency() *Histogram { return NewHistogram(100e-6, 1.05) }

// maxBuckets bounds the bucket array so that pathological observations
// (e.g. 1e300 seconds) cannot exhaust memory; anything beyond the last
// bucket is counted there, and Max still reports the true value.
const maxBuckets = 1 << 14

// Observe records one observation. Negative, NaN and +Inf values are
// ignored (they indicate a caller bug but must not corrupt the histogram).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	h.total++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if v < h.min {
		h.under++
		return
	}
	idx := int(math.Log(v/h.min) / h.logG)
	if idx < 0 {
		idx = 0
	}
	if idx >= maxBuckets {
		idx = maxBuckets - 1
	}
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.maxSeen
}

// Quantile returns the approximate q-quantile (q in [0,1]). The result is
// the upper bound of the bucket containing the target rank, so it
// overestimates by at most the growth factor. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	if rank < h.under {
		return h.min
	}
	cum := h.under
	for i, c := range h.counts {
		cum += c
		if rank < cum {
			ub := h.min * math.Pow(h.growth, float64(i+1))
			if ub > h.maxSeen {
				ub = h.maxSeen
			}
			return ub
		}
	}
	return h.maxSeen
}

// P50, P95 and P99 are common quantile shorthands.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th percentile.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge adds all observations from other into h. Both histograms must
// share min and growth; Merge panics otherwise.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if h.min != other.min || h.growth != other.growth {
		panic("metrics: Merge of differently configured histograms")
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.under += other.under
	h.total += other.total
	h.sum += other.sum
	if other.maxSeen > h.maxSeen {
		h.maxSeen = other.maxSeen
	}
	if other.minSeen < h.minSeen {
		h.minSeen = other.minSeen
	}
}

// Reset clears all recorded observations, keeping the configuration.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.under, h.total, h.sum, h.maxSeen = 0, 0, 0, 0
	h.minSeen = math.Inf(1)
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		h.total, h.Mean(), h.P50(), h.P95(), h.P99(), h.Max())
}

// Summary bundles the standard digest of a histogram for reports.
type Summary struct {
	Count         uint64
	Mean, P50     float64
	P95, P99, Max float64
}

// Summarize extracts a Summary snapshot.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total, Mean: h.Mean(), P50: h.P50(),
		P95: h.P95(), P99: h.P99(), Max: h.Max(),
	}
}

// ExactQuantile computes an exact quantile over a raw sample slice. It is
// the reference the tests bound the histogram's approximation error
// against. The input is not modified.
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	idx := int(q * float64(len(cp)))
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
