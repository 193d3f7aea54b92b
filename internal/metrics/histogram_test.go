package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"elearncloud/internal/sim"
)

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(0.001, 1.1)
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
	h := NewHistogram(1e-4, 1.05)
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
	h := NewHistogram(0.001, 1.1)
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
	h := NewHistogram(1.0, 1.5)
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // below min
	}
	if h.Count() != 10 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 1.0 {
		t.Fatalf("underflow quantile = %v, want clamped to min 1.0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0.001, 1.1)
	b := NewHistogram(0.001, 1.1)
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

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched merge")
		}
	}()
	NewHistogram(0.001, 1.1).Merge(NewHistogram(0.01, 1.1))
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

func TestHistogramConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero min":   func() { NewHistogram(0, 1.1) },
		"growth <=1": func() { NewHistogram(0.001, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
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
