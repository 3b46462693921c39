// Package plancache provides a concurrency-safe, size-bounded LRU cache for
// generated query plans.
//
// The BEAS architecture (paper Fig. 2) separates offline index construction
// from online plan generation so that one prepared database can serve many
// queries; caching the generated plan for a (normalized query, α) pair
// amortises the chase + chAT cost over a repeated workload, in the spirit of
// data-driven preparation reuse (Eggersmann et al.; Bartlett, Indyk &
// Wagner). Keys are produced by the caller and looked up as bytes — core
// appends the resource ratio, the budget and query.AppendRender's text into
// a buffer it owns, so a hit allocates no key; a key string is made only
// when Put stores an entry. Values are opaque, so the package has no
// dependency on the query machinery and stays usable for other prepared
// artefacts (compiled access paths, chase results).
//
// All methods are safe for concurrent use.
package plancache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// DefaultCapacity is the plan-cache size used when a caller passes a
// non-positive capacity.
const DefaultCapacity = 256

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits and Misses count Get outcomes since creation (or Reset).
	Hits, Misses uint64
	// Evictions counts entries dropped to respect the capacity bound.
	Evictions uint64
	// Len and Cap describe current occupancy.
	Len, Cap int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key string
	val any
}

// Cache is a mutex-guarded LRU map from string keys to opaque values.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	// Effectiveness counters are registry instruments (see Counters): a
	// server that registers them serves /stats and /metrics from the same
	// atomics this cache increments.
	hits, misses, evictions obs.Counter
}

// New builds a cache holding at most capacity entries. A non-positive
// capacity falls back to DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached value stored under the key's bytes and marks it
// most recently used. The lookup copies nothing: key may live in a
// caller's reused or stack buffer, and Get does not retain it.
func (c *Cache) Get(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts (or refreshes) key → val, evicting the least recently used
// entry if the cache is full.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.evictions.Inc()
	}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Len:       c.ll.Len(),
		Cap:       c.cap,
	}
}

// Counters exposes the cache's effectiveness instruments for metrics
// registration (obs.Registry.RegisterCounter); reads go through Stats.
func (c *Cache) Counters() (hits, misses, evictions *obs.Counter) {
	return &c.hits, &c.misses, &c.evictions
}

// Purge drops every entry and resets the counters.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.cap)
	c.hits.Reset()
	c.misses.Reset()
	c.evictions.Reset()
}
