package cdn

import (
	"testing"

	"elearncloud/internal/sim"
)

func TestTouchDoesNotCount(t *testing.T) {
	c := NewCache(2)
	c.Touch(1)
	c.Touch(2)
	if c.hits != 0 || c.misses != 0 {
		t.Fatalf("Touch counted: hits=%d misses=%d", c.hits, c.misses)
	}
	if len(c.entries) != 2 {
		t.Fatalf("Len = %d after two touches, want 2", len(c.entries))
	}
	if !c.Access(1) || !c.Access(2) {
		t.Fatal("touched objects should hit")
	}
}

func TestTouchRefreshesRecency(t *testing.T) {
	c := NewCache(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // 1 becomes most recent
	c.Touch(3) // evicts 2, the LRU
	if !c.Access(1) {
		t.Fatal("refreshed object missed")
	}
	if c.Access(2) {
		t.Fatal("evicted object hit")
	}
}

func TestTouchZeroCapacityNoop(t *testing.T) {
	c := NewCache(0)
	c.Touch(1)
	if len(c.entries) != 0 {
		t.Fatalf("Len = %d on zero-capacity cache", len(c.entries))
	}
}

func TestTouchRespectsCapacity(t *testing.T) {
	c := NewCache(3)
	for id := 0; id < 10; id++ {
		c.Touch(id)
	}
	if len(c.entries) != 3 {
		t.Fatalf("Len = %d, want capacity 3", len(c.entries))
	}
}

func TestWarmApproachesAnalyticHitRatio(t *testing.T) {
	const courses = 10 // catalog 2000, cache 500
	edge := NewEdge(courses, sim.NewRNG(42))
	edge.Warm()
	if edge.Cache().hits != 0 || edge.Cache().misses != 0 {
		t.Fatal("Warm polluted the hit/miss counters")
	}
	if len(edge.Cache().entries) != 500 {
		t.Fatalf("warm cache holds %d of 500", len(edge.Cache().entries))
	}
	// A warmed edge's early hit ratio should sit near the analytic
	// steady state rather than near zero (the cold-start regime the
	// chaos fuzzer pinned as a divergence seed).
	for i := 0; i < 5000; i++ {
		edge.Serve(videoBytes)
	}
	want := AnalyticHitRatio(courses)
	got := edge.Cache().HitRatio()
	if got < want-0.1 {
		t.Fatalf("warmed hit ratio %.3f far below analytic %.3f", got, want)
	}
}

func TestWarmDeterminism(t *testing.T) {
	build := func() *Edge {
		e := NewEdge(5, sim.NewRNG(7))
		e.Warm()
		return e
	}
	a, b := build(), build()
	for i := 0; i < 1000; i++ {
		if a.Serve(videoBytes) != b.Serve(videoBytes) {
			t.Fatalf("warmed edges diverge at request %d", i)
		}
	}
}
