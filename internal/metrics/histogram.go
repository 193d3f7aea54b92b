package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram records float64 observations (latencies in seconds) in
// exponentially sized buckets: from a 100 µs floor, each bucket's upper
// bound is 5% above its lower one, so a quantile is within 5% of the
// exact value.
//
// The zero value is not usable; construct with DefaultLatency.
type Histogram struct {
	cells   *bucketCells // the bucket lookup table
	counts  []uint64
	under   uint64 // observations below latencyFloor
	total   uint64
	sum     float64
	maxSeen float64
	minSeen float64
}

// latencyFloor is the smallest latency a bucket holds, and
// latencyGrowth the factor by which each bucket's bounds grow.
const (
	latencyFloor  float64 = 100e-6
	latencyGrowth float64 = 1.05
)

// logGrowth is the logarithm of latencyGrowth, which logBucket divides
// by.
var logGrowth = math.Log(latencyGrowth)

// DefaultLatency returns an empty request-latency histogram. Its
// buckets are looked up in a table the first call builds.
func DefaultLatency() *Histogram {
	latencyCells.once.Do(func() { latencyCells.cells = newBucketCells() })
	return &Histogram{cells: latencyCells.cells, minSeen: math.Inf(1)}
}

// latencyCells is DefaultLatency's bucket table.
var latencyCells struct {
	once  sync.Once
	cells *bucketCells
}

// cellBits is how many leading bits of a float64 name its cell: sign,
// exponent and the top 5 mantissa bits, so a cell is 1/32 of a binade.
// A cell spans at most a factor 33/32, less than latencyGrowth, so it
// holds at most one bucket edge.
const cellBits = 1 + 11 + 5

// tableCells is how many cells a bucket table holds: 32 binades.
const tableCells = 32 << 5

// bucketCells maps a value to its bucket through the cell its bits
// name: the bucket of the cell's values below the cell's edge, plus
// one from the edge on. The edges are found by bisection on the
// logarithm formula, so a lookup returns exactly what the formula
// does. It covers 32 binades from latencyFloor's cell; bucket computes
// values beyond them. The table takes 10 KB.
type bucketCells struct {
	first uint64 // the cell of latencyFloor
	edge  [tableCells]float64
	base  [tableCells]uint16
}

// newBucketCells builds the bucket table.
func newBucketCells() *bucketCells {
	c := &bucketCells{first: math.Float64bits(latencyFloor) >> (64 - cellBits)}
	for i := range c.edge {
		lo := math.Float64bits(latencyFloor)
		if i > 0 {
			lo = (c.first + uint64(i)) << (64 - cellBits)
		}
		hi := (c.first+uint64(i)+1)<<(64-cellBits) - 1 // the cell's largest value
		b := logBucket(math.Float64frombits(lo))
		c.base[i] = uint16(b)
		c.edge[i] = math.Inf(1)
		if logBucket(math.Float64frombits(hi)) == b {
			continue
		}
		// Start from 2^16 ulps either side of the exact edge when they
		// bracket the formula's, as they do unless the cell ends first.
		near := math.Float64bits(latencyFloor * math.Pow(latencyGrowth, float64(b+1)))
		if l := near - 1<<16; l > lo && logBucket(math.Float64frombits(l)) == b {
			lo = l
		}
		if r := near + 1<<16; r < hi && logBucket(math.Float64frombits(r)) != b {
			hi = r
		}
		for hi-lo > 1 { // logBucket(lo) == b < logBucket(hi)
			mid := lo + (hi-lo)/2
			if logBucket(math.Float64frombits(mid)) == b {
				lo = mid
			} else {
				hi = mid
			}
		}
		c.edge[i] = math.Float64frombits(hi)
	}
	return c
}

// maxBuckets bounds the bucket array so that pathological observations
// (e.g. 1e300 seconds) cannot exhaust memory; anything beyond the last
// bucket is counted there, and Max still reports the true value.
const maxBuckets = 1 << 14

// Observe records one observation in h and in each histogram of also,
// computing its bucket once: a run's latency histogram and its
// per-minute window see every delivery. Negative, NaN and +Inf values
// are ignored (they indicate a caller bug but must not corrupt the
// histogram).
func (h *Histogram) Observe(v float64, also ...*Histogram) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	idx := h.bucket(v)
	h.record(v, idx)
	for _, w := range also {
		w.record(v, idx)
	}
}

// bucket returns v's bucket index, or -1 below latencyFloor.
func (h *Histogram) bucket(v float64) int {
	if v < latencyFloor {
		return -1
	}
	c := h.cells
	if i := math.Float64bits(v)>>(64-cellBits) - c.first; i < tableCells {
		if v >= c.edge[i] {
			return int(c.base[i]) + 1
		}
		return int(c.base[i])
	}
	return logBucket(v)
}

// logBucket computes the bucket index of v >= latencyFloor from its
// logarithm.
func logBucket(v float64) int {
	idx := int(math.Log(v/latencyFloor) / logGrowth)
	if idx < 0 {
		idx = 0
	}
	if idx >= maxBuckets {
		idx = maxBuckets - 1
	}
	return idx
}

// record counts v, a valid observation whose bucket is idx.
func (h *Histogram) record(v float64, idx int) {
	h.total++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if idx < 0 {
		h.under++
		return
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
// overestimates by at most latencyGrowth. Returns 0 with no
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
		return latencyFloor
	}
	cum := h.under
	for i, c := range h.counts {
		cum += c
		if rank < cum {
			ub := latencyFloor * math.Pow(latencyGrowth, float64(i+1))
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

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
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

// Reset clears all recorded observations.
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
