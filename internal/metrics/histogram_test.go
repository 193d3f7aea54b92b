package metrics

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"elearncloud/internal/sim"
)

func TestHistogramBasicStats(t *testing.T) {
	h := DefaultLatency()
	for _, v := range []float64{0.01, 0.02, 0.03, 0.04} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Mean()-0.025) > 1e-12 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 0.04 || h.minSeen != 0.01 {
		t.Fatalf("min/Max = %v/%v", h.minSeen, h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := DefaultLatency()
	if h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramIgnoresBadValues(t *testing.T) {
	h := DefaultLatency()
	h.Observe(math.NaN())
	h.Observe(-1)
	if h.Count() != 0 {
		t.Fatalf("Count = %d, want 0", h.Count())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Quantile approximation must be within one growth factor of exact.
	rng := sim.NewRNG(101)
	h := DefaultLatency()
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := rng.LogNormal(-3, 1)
		h.Observe(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := ExactQuantile(samples, q)
		approx := h.Quantile(q)
		if approx < exact/1.06 || approx > exact*1.06 {
			t.Fatalf("q=%v approx=%v exact=%v outside 5%% band", q, approx, exact)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := DefaultLatency()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Quantile(0); got != h.minSeen {
		t.Fatalf("Q(0) = %v, want min %v", got, h.minSeen)
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Fatalf("Q(1) = %v, want max %v", got, h.Max())
	}
	if h.P50() > h.P95() || h.P95() > h.P99() {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramUnderflowBucket(t *testing.T) {
	h := DefaultLatency()
	for i := 0; i < 10; i++ {
		h.Observe(50e-6) // below the 100 µs floor
	}
	if h.Count() != 10 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got != latencyFloor {
		t.Fatalf("underflow quantile = %v, want clamped to the floor %v", got, latencyFloor)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := DefaultLatency()
	b := DefaultLatency()
	for i := 0; i < 100; i++ {
		a.Observe(0.01)
		b.Observe(0.1)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged Count = %d", a.Count())
	}
	if a.Max() != b.Max() {
		t.Fatalf("merged Max = %v", a.Max())
	}
	// Below the 50% rank all mass is 0.01; above it all mass is 0.1.
	lo, hi := a.Quantile(0.45), a.Quantile(0.55)
	if lo < 0.009 || lo > 0.012 {
		t.Fatalf("Q(0.45) = %v, want ~0.01", lo)
	}
	if hi < 0.09 || hi > 0.12 {
		t.Fatalf("Q(0.55) = %v, want ~0.1", hi)
	}
	a.Merge(nil) // no-op
	if a.Count() != 200 {
		t.Fatal("Merge(nil) changed the histogram")
	}
}

// TestHistogramObserveAlso: observing into h and also w with one bucket
// computation leaves each exactly as observing into them one at a time
// does, including values below the floor and values Observe ignores.
func TestHistogramObserveAlso(t *testing.T) {
	rng := sim.NewRNG(5)
	h, w := DefaultLatency(), DefaultLatency()
	wantH, wantW := DefaultLatency(), DefaultLatency()
	vals := []float64{0, 50e-6, 100e-6, math.NaN(), -1, math.Inf(1), 1e300}
	for i := 0; i < 5000; i++ {
		vals = append(vals, rng.LogNormal(-3, 2))
	}
	for i, v := range vals {
		if i == 2500 {
			w.Reset()
			wantW.Reset()
		}
		h.Observe(v, w)
		wantH.Observe(v)
		wantW.Observe(v)
	}
	if !reflect.DeepEqual(h, wantH) || !reflect.DeepEqual(w, wantW) {
		t.Fatalf("Observe(v, w) differs from separate Observes:\n h %v\n want %v\n w %v\n want %v", h, wantH, w, wantW)
	}
}

func TestHistogramReset(t *testing.T) {
	h := DefaultLatency()
	h.Observe(0.5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(0.25)
	if h.Count() != 1 || h.Max() != 0.25 {
		t.Fatal("histogram unusable after Reset")
	}
}

// Property: mean is always between min and max, and count equals the
// number of valid observations.
func TestHistogramInvariantProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := DefaultLatency()
		valid := 0
		for _, v := range raw {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e6) // latencies are bounded; avoid sum overflow
			h.Observe(v)
			valid++
		}
		if h.Count() != uint64(valid) {
			return false
		}
		if valid == 0 {
			return true
		}
		return h.Mean() >= h.minSeen-1e-12 && h.Mean() <= h.Max()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	h := DefaultLatency()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("Summary.Count = %d", s.Count)
	}
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 || s.Max < s.P99 {
		t.Fatalf("summary not monotone: %+v", s)
	}
}

func TestExactQuantile(t *testing.T) {
	samples := []float64{5, 1, 3, 2, 4}
	if got := ExactQuantile(samples, 0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := ExactQuantile(samples, 1); got != 5 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := ExactQuantile(samples, 0.5); got != 3 {
		t.Fatalf("Q0.5 = %v", got)
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}

// TestBucketCellsMatchLogarithm: DefaultLatency's bucket table returns
// the logarithm formula's bucket on 10^7 log-spaced values from half
// the floor to 2^40 times it (past the table's 32 binades, where the
// formula answers), and within 4,096 ulps either side of every edge.
// The table stays under 16 KB.
func TestBucketCellsMatchLogarithm(t *testing.T) {
	h := DefaultLatency()
	c := h.cells
	if c == nil || c != DefaultLatency().cells {
		t.Fatal("DefaultLatency histograms do not share one bucket table")
	}
	if size := unsafe.Sizeof(*c); size > 16<<10 {
		t.Fatalf("bucket table takes %d bytes, want <= 16 KB", size)
	}
	const n = 10_000_000
	for i := 0; i < n; i++ {
		v := latencyFloor * math.Exp2(-1+41*float64(i)/n)
		if got := h.bucket(v); got != formulaBucket(v) {
			t.Fatalf("bucket(%v) = %d, formula %d", v, got, formulaBucket(v))
		}
	}
	edges := 0
	for _, e := range c.edge {
		if math.IsInf(e, 1) {
			continue
		}
		edges++
		for b := math.Float64bits(e) - 4096; b <= math.Float64bits(e)+4096; b++ {
			if v := math.Float64frombits(b); h.bucket(v) != formulaBucket(v) {
				t.Fatalf("bucket(%v) = %d, formula %d (edge %v)", v, h.bucket(v), formulaBucket(v), e)
			}
		}
	}
	// 32 binades of 5% buckets: 32 ln 2 / ln 1.05 edges.
	if edges != 454 {
		t.Fatalf("bucket table holds %d edges, want 454", edges)
	}
}

// formulaBucket is the bucket the logarithm formula gives v, or -1
// below the floor: what the bucket table must return.
func formulaBucket(v float64) int {
	if v < latencyFloor {
		return -1
	}
	return logBucket(v)
}

// TestDefaultLatencyConcurrent: DefaultLatency histograms that
// goroutines build and fill at once, as a pool's runs do, share one
// bucket table and count exactly as the logarithm formula does.
func TestDefaultLatencyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	got := make([]*Histogram, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRNG(uint64(g) + 1)
			got[g] = DefaultLatency()
			for i := 0; i < 10000; i++ {
				got[g].Observe(rng.LogNormal(-3, 2))
			}
		}()
	}
	wg.Wait()
	for g, h := range got {
		rng := sim.NewRNG(uint64(g) + 1)
		var counts []uint64
		var under uint64
		for i := 0; i < 10000; i++ {
			b := formulaBucket(rng.LogNormal(-3, 2))
			if b < 0 {
				under++
				continue
			}
			for len(counts) <= b {
				counts = append(counts, 0)
			}
			counts[b]++
		}
		if h.cells == nil || h.cells != got[0].cells || !reflect.DeepEqual(h.counts, counts) || h.under != under {
			t.Fatalf("goroutine %d: table %p (goroutine 0: %p), counts %v under %d, want %v under %d",
				g, h.cells, got[0].cells, h.counts, h.under, counts, under)
		}
	}
}
