package serve

import (
	"container/list"
	"sync"

	"thermplace/internal/fault"
)

// resultCache is the per-design LRU of solved query results under a byte
// budget. The accounting unit of an entry is the memory of the solved
// analysis that produced it (flow.Analysis.MemoryBytes), so the budget
// models the resident solver state, not the serialized response size.
//
// Eviction is always safe: a missed query recomputes from the resident
// baseline through the same pure execution path and returns bit-identical
// values — the cache can serve stale-ordering, never stale-values, because
// every entry is keyed by the full canonical query (Query.Key) and results
// are pure functions of the query given the resident baseline.
type resultCache struct {
	mu      sync.Mutex
	budget  int64 // <= 0 disables the cache entirely
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	stats   *fault.Stats
}

type cacheEntry struct {
	key  string
	res  *Result
	cost int64
}

func newResultCache(budget int64, stats *fault.Stats) *resultCache {
	return &resultCache{
		budget:  budget,
		ll:      list.New(),
		entries: map[string]*list.Element{},
		stats:   stats,
	}
}

// get returns the cached result for the key (marked as a cache hit) or nil.
func (c *resultCache) get(key string) *Result {
	if c.budget <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	// Shallow copy so the Cached flag does not contaminate the stored entry;
	// the payload slices are shared read-only.
	res := *el.Value.(*cacheEntry).res
	res.Cached = true
	return &res
}

// put inserts a result, evicting least-recently-used entries until the
// budget holds. An entry larger than the whole budget is not cached at all,
// and neither is a non-positive cost: a zero-cost entry would never trip the
// byte-based eviction loop, so a budget==0 cache (or a miscounted cost)
// could grow its entry count — and the map/list overhead the byte accounting
// ignores — without bound.
func (c *resultCache) put(key string, res *Result, cost int64) {
	if c.budget <= 0 || cost <= 0 || cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += cost - ent.cost
		ent.res, ent.cost = res, cost
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, cost: cost})
		c.bytes += cost
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		c.bytes -= ent.cost
		c.stats.AddEvicted()
	}
}

// footprint returns the current accounted bytes.
func (c *resultCache) footprint() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// entriesLen returns the number of resident entries (tests/observability).
func (c *resultCache) entriesLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
