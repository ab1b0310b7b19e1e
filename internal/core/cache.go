package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"vamana/internal/mass"
)

// planCapacity is the engine's total cached-plan capacity.
const planCapacity = 256

// planCacheShards spreads the cache over independently-locked LRU shards
// so concurrent serving goroutines do not contend on one mutex.
const planCacheShards = 8

// planKey identifies a cached compilation. Unoptimized plans are built
// from the expression alone, so their entries use doc 0 and are shared by
// every document; optimized plans are compiled against one document's
// statistics and additionally carry the statistics epoch they saw.
type planKey struct {
	expr      string
	doc       mass.DocID
	optimized bool
}

type planEntry struct {
	key   planKey
	query *Query
	epoch uint64
}

// planCache is a sharded, bounded LRU of compiled queries. Validity is
// epoch-based: Store bumps a per-document statistics epoch on every
// update, and an optimized entry whose recorded epoch no longer matches
// is dropped on lookup — the cache never needs update hooks.
type planCache struct {
	capPerShard int
	shards      [planCacheShards]planShard

	hits, misses, evictions, invalidations atomic.Uint64
}

type planShard struct {
	mu  sync.Mutex
	lru *list.List // front = most recently used; values are *planEntry
	m   map[planKey]*list.Element
}

func newPlanCache(capacity int) *planCache {
	per := (capacity + planCacheShards - 1) / planCacheShards
	c := &planCache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].m = make(map[planKey]*list.Element)
	}
	return c
}

func (c *planCache) shard(k planKey) *planShard {
	// FNV-1a over the expression, folded with the document id.
	h := uint32(2166136261)
	for i := 0; i < len(k.expr); i++ {
		h = (h ^ uint32(k.expr[i])) * 16777619
	}
	h ^= uint32(k.doc) * 2654435761
	return &c.shards[h%planCacheShards]
}

// get returns the cached query for k when present and — for optimized
// entries — compiled at the document's current statistics epoch.
func (c *planCache) get(k planKey, epoch uint64) (*Query, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*planEntry)
	if k.optimized && e.epoch != epoch {
		s.lru.Remove(el)
		delete(s.m, k)
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	c.hits.Add(1)
	return e.query, true
}

func (c *planCache) put(k planKey, q *Query, epoch uint64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		e := el.Value.(*planEntry)
		e.query, e.epoch = q, epoch
		s.lru.MoveToFront(el)
		return
	}
	s.m[k] = s.lru.PushFront(&planEntry{key: k, query: q, epoch: epoch})
	if s.lru.Len() > c.capPerShard {
		last := s.lru.Back()
		s.lru.Remove(last)
		delete(s.m, last.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

// CacheStats reports the serving fast path's cache effectiveness: plan
// cache traffic plus the statistics memo underneath the optimizer.
type CacheStats struct {
	// Plan cache.
	Hits          uint64 // lookups served from cache
	Misses        uint64 // lookups that compiled
	Evictions     uint64 // entries dropped by LRU capacity
	Invalidations uint64 // entries dropped because the doc's epoch moved
	// Statistics memo (cost.MemoProbes).
	ProbeHits   uint64
	ProbeMisses uint64
	ProbeResets uint64 // memo generations discarded (epoch change or cap)
}
