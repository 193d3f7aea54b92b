package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomHistogram fills a DefaultLatency-shaped histogram with n
// observations spanning under-floor, mid-range, and heavy-tail values.
func randomHistogram(rng *rand.Rand, n int) *Histogram {
	h := DefaultLatency()
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			h.Observe(rng.Float64() * 50e-6) // below the 100µs floor
		case 9:
			h.Observe(rng.Float64() * 100) // tail
		default:
			h.Observe(rng.Float64() * 0.5)
		}
	}
	return h
}

func sameDigest(t *testing.T, label string, a, b *Histogram, sumTol float64) {
	t.Helper()
	if a.Count() != b.Count() {
		t.Fatalf("%s: counts %d vs %d", label, a.Count(), b.Count())
	}
	if math.Abs(a.Sum()-b.Sum()) > sumTol*math.Abs(a.Sum()) {
		t.Fatalf("%s: sums %v vs %v", label, a.Sum(), b.Sum())
	}
	if a.minSeen != b.minSeen || a.Max() != b.Max() {
		t.Fatalf("%s: min/max (%v,%v) vs (%v,%v)", label, a.minSeen, a.Max(), b.minSeen, b.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		if aq, bq := a.Quantile(q), b.Quantile(q); aq != bq {
			t.Fatalf("%s: q%.2f %v vs %v", label, q, aq, bq)
		}
	}
}

// TestHistogramMergeCommutative checks A+B == B+A: bucket counts and
// quantiles exactly, the float sum too (two-operand float addition is
// commutative).
func TestHistogramMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a1, b1 := randomHistogram(rng, 5000), randomHistogram(rng, 3000)
		a2 := DefaultLatency()
		a2.Merge(b1) // B first...
		a2.Merge(a1) // ...then A
		ab := DefaultLatency()
		ab.Merge(a1)
		ab.Merge(b1)
		sameDigest(t, "commutativity", ab, a2, 0)
	}
}

// TestHistogramMergeAssociative checks (A+B)+C == A+(B+C): exact for
// counts and quantiles; the sum is compared within a relative tolerance
// because float addition itself is not associative.
func TestHistogramMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		mk := func() (*Histogram, *Histogram, *Histogram) {
			return randomHistogram(rng, 4000), randomHistogram(rng, 2000), randomHistogram(rng, 1000)
		}
		a, b, c := mk()
		left := DefaultLatency()
		left.Merge(a)
		left.Merge(b)
		left.Merge(c)
		bc := DefaultLatency()
		bc.Merge(b)
		bc.Merge(c)
		right := DefaultLatency()
		right.Merge(a)
		right.Merge(bc)
		sameDigest(t, "associativity", left, right, 1e-12)
	}
}

// TestHistogramMergeMatchesDirect checks the sharding use case end to
// end: observations split across K histograms and merged in shard order
// give the same digest as observing everything in one histogram.
func TestHistogramMergeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	direct := DefaultLatency()
	const K = 8
	parts := make([]*Histogram, K)
	for k := range parts {
		parts[k] = DefaultLatency()
	}
	for i := 0; i < 50000; i++ {
		v := rng.ExpFloat64() * 0.2
		direct.Observe(v)
		parts[i%K].Observe(v)
	}
	merged := DefaultLatency()
	for _, p := range parts {
		merged.Merge(p)
	}
	sameDigest(t, "split-vs-direct", direct, merged, 1e-9)
}

// TestHistogramMergeConfigMismatch checks differently configured
// histograms refuse to merge instead of silently mixing bucket layouts.
func TestHistogramMergeConfigMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge of differently configured histograms did not panic")
		}
	}()
	DefaultLatency().Merge(NewHistogram(1e-3, 1.1))
}

// TestMergeSeries checks point-wise combination and alignment
// enforcement.
func TestMergeSeries(t *testing.T) {
	a, b := NewTimeSeries("a"), NewTimeSeries("b")
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * time.Minute
		a.Add(at, float64(i))
		b.Add(at, float64(10*i))
	}
	sum := MergeSeries("sum", func(vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	}, a, b)
	if sum.Len() != 5 {
		t.Fatalf("merged length %d", sum.Len())
	}
	for i, p := range sum.Points() {
		if want := float64(11 * i); p.Value != want || p.At != time.Duration(i)*time.Minute {
			t.Fatalf("point %d = %+v, want value %v", i, p, want)
		}
	}
	short := NewTimeSeries("short")
	short.Add(0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MergeSeries with misaligned lengths did not panic")
			}
		}()
		MergeSeries("bad", func(v []float64) float64 { return 0 }, a, short)
	}()
}
