package cdn

import (
	"fmt"
	"math"

	"elearncloud/internal/sim"
)

// Config describes an edge deployment for a course-video catalog.
type Config struct {
	// CatalogObjects is the number of distinct video segments across
	// all courses.
	CatalogObjects int
	// ObjectBytes is the mean segment size.
	ObjectBytes float64
	// CacheObjects is the edge cache capacity in objects.
	CacheObjects int
	// ZipfS is the popularity skew (≈1 for course content: everyone
	// watches this week's lectures).
	ZipfS float64
	// PricePerGB is the CDN delivery price (2013: ~$0.06/GB at volume,
	// versus $0.12/GB raw egress).
	PricePerGB float64
	// EdgeLatency is the user-to-edge one-way latency in seconds
	// (edges sit close; the origin round trip is what a miss adds).
	EdgeLatency float64
}

// DefaultConfig sizes a CDN for an institution's course catalog: one
// semester's videos, an edge cache holding a quarter of them.
func DefaultConfig(courses int) Config {
	if courses < 1 {
		courses = 1
	}
	catalog := courses * 200 // ~200 segments per course
	return Config{
		CatalogObjects: catalog,
		ObjectBytes:    2e6,
		CacheObjects:   catalog / 4,
		ZipfS:          1.0,
		PricePerGB:     0.06,
		EdgeLatency:    0.008,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.CatalogObjects <= 0 {
		return fmt.Errorf("cdn: catalog must be positive")
	}
	if c.CacheObjects < 0 {
		return fmt.Errorf("cdn: negative cache size")
	}
	if c.ZipfS <= 0 {
		return fmt.Errorf("cdn: Zipf exponent must be positive")
	}
	if c.PricePerGB < 0 || c.ObjectBytes <= 0 || c.EdgeLatency < 0 {
		return fmt.Errorf("cdn: bad price, object size or latency")
	}
	return nil
}

// AnalyticHitRatio returns the steady-state hit ratio of a cache that
// holds the K most popular of N objects under Zipf(s) popularity:
// H_K(s)/H_N(s) with H the generalized harmonic number. This is the
// ideal (LFU) ratio; LRU under Zipf tracks it closely for s near 1.
func AnalyticHitRatio(catalogN, cacheK int, s float64) float64 {
	if catalogN <= 0 || cacheK <= 0 {
		return 0
	}
	if cacheK >= catalogN {
		return 1
	}
	return harmonic(cacheK, s) / harmonic(catalogN, s)
}

func harmonic(n int, s float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
	}
	return sum
}

// Cache is an exact LRU cache over object IDs for request-level
// simulation.
type Cache struct {
	capacity int
	entries  map[int]*lruNode
	head     *lruNode // most recent
	tail     *lruNode // least recent

	hits, misses uint64
}

type lruNode struct {
	id         int
	prev, next *lruNode
}

// NewCache returns an LRU cache holding at most capacity objects; zero
// capacity caches miss everything.
func NewCache(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{capacity: capacity, entries: make(map[int]*lruNode, capacity)}
}

// Len returns the number of cached objects.
func (c *Cache) Len() int { return len(c.entries) }

// Hits and Misses return the access counters.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss counter.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRatio returns hits/(hits+misses), 0 before any access.
func (c *Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Touch inserts or refreshes an object without counting a hit or a
// miss. It is the warm-up primitive: a hybrid run stitching into a DES
// window uses it to pre-populate the cache to the occupancy the fluid
// model predicts, without polluting the hit-ratio statistics the window
// will report.
func (c *Cache) Touch(id int) {
	if n, ok := c.entries[id]; ok {
		c.moveToFront(n)
		return
	}
	if c.capacity == 0 {
		return
	}
	c.insert(id)
}

// Access looks up an object, inserting it on miss (evicting the least
// recently used entry if full). It reports whether the access was a hit.
func (c *Cache) Access(id int) bool {
	if n, ok := c.entries[id]; ok {
		c.hits++
		c.moveToFront(n)
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	c.insert(id)
	return false
}

// insert caches id as the most recently used object. A full cache
// evicts its least recently used object and reuses that node, so a
// miss on a full cache allocates nothing.
func (c *Cache) insert(id int) {
	var n *lruNode
	if len(c.entries) >= c.capacity {
		n = c.evict()
	}
	if n == nil {
		n = new(lruNode)
	}
	n.id = id
	c.entries[id] = n
	c.pushFront(n)
}

func (c *Cache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if c.head == n {
		c.head = n.next
	}
	if c.tail == n {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// evict removes the least recently used object and returns its
// unlinked node, or nil when the cache is empty.
func (c *Cache) evict() *lruNode {
	lru := c.tail
	if lru == nil {
		return nil
	}
	c.unlink(lru)
	delete(c.entries, lru.id)
	return lru
}

// Edge binds a Config, a Cache and a popularity sampler into the object
// the scenario consults per video request.
type Edge struct {
	cfg   Config
	cache *Cache
	zipf  *sim.ZipfGen

	servedBytes float64 // all bytes delivered via the CDN
	originBytes float64 // miss bytes fetched from the origin (egress)
}

// NewEdge builds an edge for cfg; rng drives popularity sampling.
func NewEdge(cfg Config, rng *sim.RNG) (*Edge, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Edge{
		cfg:   cfg,
		cache: NewCache(cfg.CacheObjects),
		zipf:  sim.NewZipfGen(rng, cfg.CatalogObjects, cfg.ZipfS),
	}, nil
}

// Config returns the edge's configuration.
func (e *Edge) Config() Config { return e.cfg }

// Cache exposes the underlying cache for inspection.
func (e *Edge) Cache() *Cache { return e.cache }

// Warm pre-populates the cache with n popularity-sampled objects
// without touching the hit/miss counters, approximating the steady
// state an edge reaches after serving traffic for a while. A hybrid
// run calls it when a DES window opens mid-horizon, so the window
// starts from the warm cache the fluid model's analytic hit ratio
// assumed rather than from an empty (all-miss) edge. Sampling draws
// from the edge's popularity stream, so warming is deterministic for a
// given (seed, n) and the warmed set skews toward the objects real
// traffic would have cached.
func (e *Edge) Warm(n int) {
	for i := 0; i < n; i++ {
		e.cache.Touch(e.zipf.Sample())
	}
}

// Serve resolves one video request of the given size: a popular object
// is sampled, the cache consulted, and byte accounting updated. It
// reports whether the request hit the edge. Non-positive sizes fall back
// to the configured mean object size.
func (e *Edge) Serve(bytes float64) (hit bool) {
	if bytes <= 0 {
		bytes = e.cfg.ObjectBytes
	}
	id := e.zipf.Sample()
	hit = e.cache.Access(id)
	e.servedBytes += bytes
	if !hit {
		e.originBytes += bytes
	}
	return hit
}

// ServedGB returns all CDN-delivered gigabytes (billed at PricePerGB).
func (e *Edge) ServedGB() float64 { return e.servedBytes / 1e9 }

// OriginGB returns origin-fetched gigabytes (billed as provider egress).
func (e *Edge) OriginGB() float64 { return e.originBytes / 1e9 }

// DeliveryCostUSD prices the edge's traffic: CDN delivery plus origin
// egress on misses.
func (e *Edge) DeliveryCostUSD(egressPerGB float64) float64 {
	return e.ServedGB()*e.cfg.PricePerGB + e.OriginGB()*egressPerGB
}
