package cdn

import "elearncloud/internal/sim"

// segmentsPerCourse is how many distinct video segments one course's
// semester of lectures holds.
const segmentsPerCourse = 200

// sizes returns the video catalog of an institution teaching courses
// courses (at least one) and the edge cache's capacity, a quarter of
// it, both in segments.
func sizes(courses int) (catalog, cache int) {
	catalog = max(courses, 1) * segmentsPerCourse
	return catalog, catalog / 4
}

// AnalyticHitRatio returns the steady-state hit ratio of the edge
// NewEdge builds for courses courses: a cache holding the K most
// popular of N segments under Zipf(1) popularity (everyone watches
// this week's lectures) hits H_K/H_N of requests, with H the harmonic
// number. This is the ideal (LFU) ratio; LRU under Zipf(1) tracks it
// closely.
func AnalyticHitRatio(courses int) float64 {
	catalog, cache := sizes(courses)
	return harmonic(cache) / harmonic(catalog)
}

// harmonic returns the harmonic number H_n, summed from 1/1 up.
func harmonic(n int) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / float64(i)
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

// Edge binds a Cache and a popularity sampler into the object the
// scenario consults per video request.
type Edge struct {
	cache *Cache
	zipf  *sim.ZipfGen

	servedBytes float64 // all bytes delivered via the CDN
	originBytes float64 // miss bytes fetched from the origin (egress)
}

// NewEdge builds the edge for an institution teaching courses courses:
// one semester's video catalog, a quarter of it cached at the edge.
// rng drives popularity sampling.
func NewEdge(courses int, rng *sim.RNG) *Edge {
	catalog, cache := sizes(courses)
	return &Edge{cache: NewCache(cache), zipf: sim.NewZipfGen(rng, catalog)}
}

// Cache exposes the underlying cache for inspection.
func (e *Edge) Cache() *Cache { return e.cache }

// Warm pre-populates the cache with three capacities' worth of
// popularity-sampled objects without touching the hit/miss counters,
// approximating the steady state an edge reaches after serving traffic
// for a while. A hybrid run calls it when a DES window opens
// mid-horizon, so the window starts from the warm cache the fluid
// model's analytic hit ratio assumed rather than from an empty
// (all-miss) edge. Sampling draws from the edge's popularity stream,
// so warming is deterministic for a given seed and the warmed set
// skews toward the objects real traffic would have cached.
func (e *Edge) Warm() {
	for i := 0; i < 3*e.cache.capacity; i++ {
		e.cache.Touch(e.zipf.Sample())
	}
}

// Serve resolves one video request of the given size in bytes: a
// popular object is sampled, the cache consulted, and byte accounting
// updated. It reports whether the request hit the edge.
func (e *Edge) Serve(bytes float64) (hit bool) {
	id := e.zipf.Sample()
	hit = e.cache.Access(id)
	e.servedBytes += bytes
	if !hit {
		e.originBytes += bytes
	}
	return hit
}

// ServedGB returns all CDN-delivered gigabytes (billed at the CDN rate).
func (e *Edge) ServedGB() float64 { return e.servedBytes / 1e9 }

// OriginGB returns origin-fetched gigabytes (billed as provider egress).
func (e *Edge) OriginGB() float64 { return e.originBytes / 1e9 }
