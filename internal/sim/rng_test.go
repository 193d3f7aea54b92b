package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminismAndStreamIndependence(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Streams with the same name match; different names differ.
	r := NewRNG(5)
	s1, s2 := r.Stream("net"), r.Stream("net")
	d := r.Stream("cpu")
	same, diff := true, true
	for i := 0; i < 100; i++ {
		v1, v2, v3 := s1.Uint64(), s2.Uint64(), d.Uint64()
		if v1 != v2 {
			same = false
		}
		if v1 != v3 {
			diff = false
		}
	}
	if !same {
		t.Fatal("identical stream names diverged")
	}
	if diff {
		t.Fatal("distinct stream names produced identical output")
	}
}

func TestStreamOrderIndependent(t *testing.T) {
	r1 := NewRNG(7)
	a := r1.Stream("a").Uint64()
	b := r1.Stream("b").Uint64()

	r2 := NewRNG(7)
	b2 := r2.Stream("b").Uint64()
	a2 := r2.Stream("a").Uint64()

	if a != a2 || b != b2 {
		t.Fatal("stream derivation depends on creation order")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(13)
	const want = 2.5
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(want)
	}
	mean := sum / n
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("exp mean = %v, want ~%v", mean, want)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(17)
	const (
		wantMean = 10.0
		wantSD   = 3.0
		n        = 200000
	)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(wantMean, wantSD)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-wantMean) > 0.05 {
		t.Fatalf("norm mean = %v", mean)
	}
	if math.Abs(sd-wantSD) > 0.05 {
		t.Fatalf("norm sd = %v", sd)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(29)
	if r.Bernoulli(0) || r.Bernoulli(-1) {
		t.Fatal("Bernoulli(<=0) must be false")
	}
	if !r.Bernoulli(1) || !r.Bernoulli(2) {
		t.Fatal("Bernoulli(>=1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestParetoTailAndMin(t *testing.T) {
	r := NewRNG(31)
	const alpha, xm = 2.5, 10.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Pareto(alpha, xm)
		if v < xm {
			t.Fatalf("Pareto sample %v below scale %v", v, xm)
		}
		sum += v
	}
	mean := sum / n
	want := alpha * xm / (alpha - 1)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("pareto mean = %v, want ~%v", mean, want)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(37)
	g := NewZipfGen(r, 100)
	counts := make([]int, 101)
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.Sample()
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank1=%d rank50=%d", counts[1], counts[50])
	}
	// Rank 1 should get roughly 1/H(100) of the mass (~19%).
	p1 := float64(counts[1]) / n
	if p1 < 0.15 || p1 > 0.25 {
		t.Fatalf("Zipf rank-1 share = %v, want ~0.19", p1)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(41)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) did not cover range: %v", seen)
	}
}

func TestPickWeighted(t *testing.T) {
	r := NewRNG(43)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick([]float64{1, 2, 7})]++
	}
	p2 := float64(counts[2]) / n
	if math.Abs(p2-0.7) > 0.01 {
		t.Fatalf("Pick weight-7 share = %v, want ~0.7", p2)
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRNG(1).Pick([]float64{0, 0})
}

func TestDistributionInterfaces(t *testing.T) {
	r := NewRNG(47)
	tests := []struct {
		d       Dist
		wantStr string
	}{
		{LogNormal(4, 0.5), "LogNormal(mean=4,sigma=0.5)"},
		{Pareto(2, 1), "Pareto(alpha=2,xm=1)"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.wantStr {
			t.Errorf("String = %q, want %q", got, tt.wantStr)
		}
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += tt.d.Sample(r)
		}
		mean := sum / n
		if tt.d.Mean() > 0 && math.Abs(mean-tt.d.Mean())/tt.d.Mean() > 0.05 {
			t.Errorf("%v empirical mean %v vs declared %v", tt.d, mean, tt.d.Mean())
		}
	}
}

func TestParetoMeanInfiniteRegime(t *testing.T) {
	d := Pareto(0.9, 2)
	if d.Mean() != 20 {
		t.Fatalf("heavy-tail Mean proxy = %v, want 20", d.Mean())
	}
}
