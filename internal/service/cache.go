package service

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/imgutil"
	"repro/internal/metric"
)

// prepCache is a content-addressed LRU of core.Prepared values — the
// histogram-matched input, tile grids, both columnar tile stores and the
// S×S error matrix of one (input, target, geometry, metric) combination.
// Repeated requests against the same target/tile library are the photomosaic
// serving pattern, and Step 2 dominates their cost, so a hit skips it
// entirely: the job runs only Step 3 + assembly on the shared Prepared (safe
// — Prepared and its stores are immutable and FinishContext is
// concurrency-clean).
//
// Capacity is bounded in bytes (Prepared.MemoryBytes as the weight, which
// charges the stores' padded pixel blocks and per-tile stats alongside the
// matrix);
// eviction is least-recently-used. Concurrent misses on one key are
// deduplicated: followers wait for the leader's build instead of stampeding
// the device pool with identical Step-2 work.
type prepCache struct {
	mu        sync.Mutex
	capBytes  int64
	bytes     int64
	ll        *list.List // MRU at the front; values are *cacheEntry
	items     map[string]*list.Element
	inflight  map[string]*flight
	evictions int64
}

type cacheEntry struct {
	key  string
	prep *core.Prepared
	size int64
}

// flight is one in-progress build; followers block on done.
type flight struct {
	done chan struct{}
	prep *core.Prepared
	err  error
}

func newPrepCache(capBytes int64) *prepCache {
	return &prepCache{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// getOrPrepare returns the Prepared for key, building it with build on a
// miss. hit reports whether Step 2 was skipped — true for a cached value
// and for a follower that reused a concurrent leader's build.
func (c *prepCache) getOrPrepare(ctx context.Context, key string, build func() (*core.Prepared, error)) (prep *core.Prepared, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		prep = el.Value.(*cacheEntry).prep
		c.mu.Unlock()
		return prep, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err == nil {
			return fl.prep, true, nil
		}
		// The leader failed (possibly on its own cancelled context);
		// build independently rather than inheriting its error.
		prep, err = build()
		if err != nil {
			return nil, false, err
		}
		c.insert(key, prep)
		return prep, false, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.prep, fl.err = build()
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insertLocked(key, fl.prep)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.prep, false, fl.err
}

func (c *prepCache) insert(key string, prep *core.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, prep)
}

// insertLocked adds (or refreshes) an entry and evicts from the LRU tail
// until the byte budget holds. The newest entry always stays, even when it
// alone exceeds the budget — failing to cache would make an oversized
// workload rebuild Step 2 on every request, the exact behaviour the cache
// exists to avoid; evictions reclaim the space as soon as anything else
// arrives.
func (c *prepCache) insertLocked(key string, prep *core.Prepared) {
	if c.capBytes <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).prep = prep
		return
	}
	e := &cacheEntry{key: key, prep: prep, size: prep.MemoryBytes()}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.capBytes && c.ll.Len() > 1 {
		tail := c.ll.Back()
		ev := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, ev.key)
		c.bytes -= ev.size
		c.evictions++
	}
}

// contains reports whether key is resident, without bumping LRU order — the
// peek path behind HEAD /v1/prepared/{hash}. A peek is not a use: routers
// probe every node, and promoting on probe would let remote peeks distort
// eviction.
func (c *prepCache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// stats returns the entry count, resident bytes and lifetime evictions.
func (c *prepCache) stats() (entries int, bytes int64, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.evictions
}

// cacheKey is core.ContentHash — the one content address shared by this
// cache, the peek endpoint and the cluster router's hash routing.
func cacheKey(input, target *imgutil.Gray, tiles int, met metric.Metric, noHist bool) string {
	return core.ContentHash(input, target, tiles, met, noHist)
}
