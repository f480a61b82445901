package service

import (
	"container/list"
	"encoding/binary"
	"sync"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// The explanation cache (DESIGN.md §15). Heavy interactive traffic is
// dominated by duplicate explains against the same context version, so the
// server memoizes fully-rendered explain outcomes under a cacheKey.
// Invalidation is free: the context's mutation stamp is part of the key, so
// any observe, retention eviction, or replicated apply shifts new traffic to
// fresh keys and the old entries age out of the LRU. Memory is bounded
// twice — by entry count and by an approximate byte budget — whichever cap
// is hit first evicts from the cold end.
//
// Only exact outcomes are stored: a key is a deterministic function of the
// solve problem, so an entry answers every later request for it whatever its
// deadline. A key degraded by an expired deadline or a disconnect depends on
// how long the solve ran; it goes back to the request that paid for it and
// never enters the cache.

// cacheKey identifies one explain problem. Two requests share a cache entry
// exactly when they would run byte-identical solves: same context version
// (the retained context's mutation stamp), conformity bound, label and
// instance. The solver is fixed for the server's life, and so for its
// cache's. Struct equality compares field by field, so distinct tuples never
// share a key; alpha compares as a float64, so bounds one ulp apart stay
// apart, as they do in the solver. Callers run core.ValidateAlpha first, so
// NaN, which equals nothing, never reaches a key.
type cacheKey struct {
	version uint64
	alpha   float64
	label   feature.Label
	x       string // the instance, 4 little-endian bytes per value
}

func cacheKeyOf(version uint64, alpha float64, li feature.Labeled) cacheKey {
	x := make([]byte, 0, 4*len(li.X))
	for _, v := range li.X {
		x = binary.LittleEndian.AppendUint32(x, uint32(v))
	}
	return cacheKey{version: version, alpha: alpha, label: li.Y, x: string(x)}
}

// cachedExplain is one explain outcome: everything needed to render a
// byte-identical response body without touching the solver or the context.
type cachedExplain struct {
	resp  ExplainResponse // replica fields unset; filled per request
	noKey bool            // the solve proved no α-conformant key exists (409)
}

// cacheEntrySize approximates the entry's memory footprint for the byte
// cap: the key's instance string, the rendered rule and feature names, plus
// a fixed overhead for the key's scalars, the struct, list element, and map
// header.
func cacheEntrySize(key cacheKey, e *cachedExplain) int {
	n := len(key.x) + len(e.resp.Rule) + 96
	for _, f := range e.resp.Features {
		n += len(f) + 16
	}
	return n
}

// explainCache is a mutex-guarded LRU over cache keys. It is its own lock
// domain, deliberately independent of Server.mu: hits must not queue behind a
// solver holding the state lock.
type explainCache struct {
	mu         sync.Mutex
	maxEntries int   // guarded by mu; > 0
	maxBytes   int64 // guarded by mu; > 0
	bytes      int64 // guarded by mu; approximate occupancy

	ll      *list.List                 // guarded by mu; front = hottest
	entries map[cacheKey]*list.Element // guarded by mu

	evictions *obs.Counter // the owning server's; nil = uncounted
}

// cacheItem is the list payload.
type cacheItem struct {
	key  cacheKey
	e    *cachedExplain
	size int
}

const (
	defaultCacheEntries = 8192
	defaultCacheBytes   = 32 << 20
)

// newExplainCache builds a cache; non-positive caps take the defaults.
func newExplainCache(maxEntries int, maxBytes int64) *explainCache {
	if maxEntries <= 0 {
		maxEntries = defaultCacheEntries
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return &explainCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    make(map[cacheKey]*list.Element),
	}
}

// get returns the entry under key, promoting it to the hot end.
func (c *explainCache) get(key cacheKey) (*cachedExplain, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).e, true
}

// put inserts or replaces the entry under key, then evicts past the caps.
func (c *explainCache) put(key cacheKey, e *cachedExplain) {
	size := cacheEntrySize(key, e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		item := el.Value.(*cacheItem)
		c.bytes += int64(size - item.size)
		item.e, item.size = e, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheItem{key: key, e: e, size: size})
		c.entries[key] = el
		c.bytes += int64(size)
	}
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		c.evictOldestLocked()
	}
}

// evictOldestLocked drops the cold-end entry. Callers hold c.mu.
func (c *explainCache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	item := el.Value.(*cacheItem)
	c.ll.Remove(el)
	delete(c.entries, item.key)
	c.bytes -= int64(item.size)
	c.evictions.Inc()
}

// stats reports occupancy for /stats.
func (c *explainCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}
