package cdn

import (
	"math"
	"testing"
	"testing/quick"

	"elearncloud/internal/sim"
)

func TestCacheBasicsLRU(t *testing.T) {
	c := NewCache(2)
	if c.Access(1) {
		t.Fatal("empty cache hit")
	}
	if !c.Access(1) {
		t.Fatal("repeat access missed")
	}
	c.Access(2) // cache: [2,1]
	c.Access(1) // refresh 1: [1,2]
	c.Access(3) // evicts 2: [3,1]
	if c.Access(2) {
		t.Fatal("evicted entry still cached") // inserts 2, evicts 1: [2,3]
	}
	if !c.Access(3) {
		t.Fatal("recently inserted entry evicted")
	}
	if c.Access(1) {
		t.Fatal("LRU victim still cached")
	}
	if len(c.entries) != 2 {
		t.Fatalf("Len = %d", len(c.entries))
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 10; i++ {
		if c.Access(1) {
			t.Fatal("zero-capacity cache hit")
		}
	}
	if c.HitRatio() != 0 {
		t.Fatal("hit ratio should be 0")
	}
	if c.misses != 10 {
		t.Fatalf("Misses = %d", c.misses)
	}
}

func TestCacheCountersAndRatio(t *testing.T) {
	c := NewCache(4)
	c.Access(1)
	c.Access(1)
	c.Access(1)
	c.Access(2)
	if c.hits != 2 || c.misses != 2 {
		t.Fatalf("hits/misses = %d/%d", c.hits, c.misses)
	}
	if c.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %v", c.HitRatio())
	}
}

// Property: the cache never exceeds capacity and Len matches the map.
func TestCacheCapacityInvariant(t *testing.T) {
	f := func(ids []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewCache(capacity)
		for _, id := range ids {
			c.Access(int(id))
			if len(c.entries) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticHitRatioProperties(t *testing.T) {
	if got := harmonic(1); got != 1 {
		t.Fatalf("H_1 = %v", got)
	}
	// A quarter of a growing catalog holds a growing share of Zipf(1)
	// demand, always below the whole.
	prev := 0.0
	for _, courses := range []int{1, 5, 10, 40, 80, 400} {
		r := AnalyticHitRatio(courses)
		if r <= prev || r >= 1 {
			t.Fatalf("hit ratio %v at %d courses, after %v: want increasing, below 1", r, courses, prev)
		}
		prev = r
	}
	// Zipf(1), K=N/4 of N=1000: the top quarter carries well over half
	// the mass.
	if r := AnalyticHitRatio(5); r < 0.7 {
		t.Fatalf("quarter cache ratio = %v, want > 0.7", r)
	}
}

// videoBytes is the segment size the edge tests serve.
const videoBytes = 2e6

func TestLRUSimulatedMatchesAnalytic(t *testing.T) {
	const courses = 5 // catalog 1000, cache 250
	edge := NewEdge(courses, sim.NewRNG(7))
	const n = 200000
	for i := 0; i < n; i++ {
		edge.Serve(videoBytes)
	}
	analytic := AnalyticHitRatio(courses)
	got := edge.Cache().HitRatio()
	// LRU under Zipf(1) tracks ideal LFU within a few points.
	if math.Abs(got-analytic) > 0.08 {
		t.Fatalf("LRU ratio %v vs analytic %v", got, analytic)
	}
}

func TestEdgeAccounting(t *testing.T) {
	edge := NewEdge(1, sim.NewRNG(3)) // catalog 200, cache 50
	hits := 0
	for i := 0; i < 10000; i++ {
		if edge.Serve(videoBytes) {
			hits++
		}
	}
	if got, want := edge.ServedGB(), 10000*videoBytes/1e9; got != want {
		t.Fatalf("ServedGB %v, want every request's bytes %v", got, want)
	}
	if got, want := edge.OriginGB(), float64(10000-hits)*videoBytes/1e9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("OriginGB %v, want the %d misses' bytes %v", got, 10000-hits, want)
	}
}

func TestConfigValidation(t *testing.T) {
	// A course count below one sizes the edge for one course.
	for _, courses := range []int{0, -3} {
		catalog, cache := sizes(courses)
		if catalog != segmentsPerCourse || cache != segmentsPerCourse/4 {
			t.Fatalf("%d courses: catalog %d, cache %d; want one course's %d, %d",
				courses, catalog, cache, segmentsPerCourse, segmentsPerCourse/4)
		}
	}
	if catalog, cache := sizes(80); catalog != 16000 || cache != 4000 {
		t.Fatalf("80 courses: catalog %d, cache %d; want 16000, 4000", catalog, cache)
	}
}

func TestEdgeDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		edge := NewEdge(40, sim.NewRNG(11))
		for i := 0; i < 50000; i++ {
			edge.Serve(videoBytes)
		}
		return edge.ServedGB(), edge.Cache().HitRatio()
	}
	s1, h1 := run()
	s2, h2 := run()
	if s1 != s2 || h1 != h2 {
		t.Fatal("edge not deterministic")
	}
}
