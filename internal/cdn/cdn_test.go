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
	if got := AnalyticHitRatio(100, 100, 1); got != 1 {
		t.Fatalf("full cache ratio = %v", got)
	}
	if got := AnalyticHitRatio(100, 0, 1); got != 0 {
		t.Fatalf("empty cache ratio = %v", got)
	}
	// Monotone in cache size.
	prev := 0.0
	for _, k := range []int{1, 5, 10, 25, 50, 75, 100} {
		r := AnalyticHitRatio(100, k, 1)
		if r < prev {
			t.Fatalf("hit ratio not monotone at K=%d", k)
		}
		prev = r
	}
	// Zipf(1), K=N/4: the top quarter carries well over half the mass.
	if r := AnalyticHitRatio(1000, 250, 1); r < 0.7 {
		t.Fatalf("quarter cache ratio = %v, want > 0.7", r)
	}
}

func TestLRUSimulatedMatchesAnalytic(t *testing.T) {
	cfg := Config{
		CatalogObjects: 1000, ObjectBytes: 2e6, CacheObjects: 250,
		ZipfS: 1.0,
	}
	edge, err := NewEdge(cfg, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	for i := 0; i < n; i++ {
		edge.Serve(0)
	}
	analytic := AnalyticHitRatio(cfg.CatalogObjects, cfg.CacheObjects, cfg.ZipfS)
	got := edge.Cache().HitRatio()
	// LRU under Zipf(1) tracks ideal LFU within a few points.
	if math.Abs(got-analytic) > 0.08 {
		t.Fatalf("LRU ratio %v vs analytic %v", got, analytic)
	}
}

func TestEdgeAccounting(t *testing.T) {
	cfg := Config{
		CatalogObjects: 100, ObjectBytes: 1e6, CacheObjects: 100, // everything fits
		ZipfS: 1.0,
	}
	edge, err := NewEdge(cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		edge.Serve(0)
	}
	if edge.ServedGB() <= 0 {
		t.Fatal("no served bytes")
	}
	// With a cache that fits the catalog, origin traffic is bounded by
	// cold misses: at most catalog * objectBytes.
	maxOrigin := float64(cfg.CatalogObjects) * cfg.ObjectBytes / 1e9
	if edge.OriginGB() > maxOrigin {
		t.Fatalf("OriginGB %v exceeds cold-miss bound %v", edge.OriginGB(), maxOrigin)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{CatalogObjects: 0, ObjectBytes: 1, ZipfS: 1},
		{CatalogObjects: 10, CacheObjects: -1, ObjectBytes: 1, ZipfS: 1},
		{CatalogObjects: 10, ObjectBytes: 1, ZipfS: 0},
		{CatalogObjects: 10, ObjectBytes: 0, ZipfS: 1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
	if err := DefaultConfig(80).Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultConfig(0).CatalogObjects <= 0 {
		t.Fatal("zero-course default broken")
	}
}

func TestNewEdgeRejectsBadConfig(t *testing.T) {
	if _, err := NewEdge(Config{}, sim.NewRNG(1)); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestEdgeDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		edge, err := NewEdge(DefaultConfig(40), sim.NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50000; i++ {
			edge.Serve(0)
		}
		return edge.ServedGB(), edge.Cache().HitRatio()
	}
	s1, h1 := run()
	s2, h2 := run()
	if s1 != s2 || h1 != h2 {
		t.Fatal("edge not deterministic")
	}
}
