package server

import (
	"pathalgebra/internal/graph"
	"pathalgebra/internal/lru"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/pathset"
)

// cachedResult is one cached POST /query result: the materialized set
// and the graph view its path IDs resolve against.
type cachedResult struct {
	set *pathset.Set
	g   *graph.Graph
}

// epochEntry is one cached value tagged with the epoch it was computed
// at and the label footprint of the plan that produced it (which
// node/edge labels the value can depend on).
type epochEntry[V any] struct {
	val   V
	epoch uint64
	fp    graph.Footprint
}

// epochCache is an LRU (lru.Cache) of evaluation answers that stay valid
// only while the graph they were computed on has not changed under
// them. The server keeps two: POST /query path sets (cachedResult) and
// rendered POST /reach answers (reachResponse). They are separate
// instances on purpose — reach answers are path-free while query results
// are path sets, and the two evaluation routes must never alias — and
// their keys are disjoint besides (reachKey's "reach:<mode>:" prefix).
//
// Keys are the canonical rendering of the PLANNED physical plan plus the
// evaluation limits (the inputs that determine an answer byte for byte
// — evaluation is deterministic at every parallelism). Cached values are
// immutable and shared: a hit costs no evaluation and no copying.
//
// Capacity is counted in entries. Invalidation is label-footprint-based:
// a hit is valid only while no ingest batch since the entry's epoch has
// touched any label in its footprint (Store.ValidAt consults the store's
// per-label modification clock). A delta touching only `knows`
// therefore evicts entries whose plan reads `knows` and leaves the rest
// servable. Explicit invalidation (POST /cache/invalidate) empties the
// cache wholesale. A nil *epochCache is a disabled cache.
type epochCache[V any] struct {
	entries *lru.Cache[string, epochEntry[V]]
}

func newEpochCache[V any](capacity int) *epochCache[V] {
	return &epochCache[V]{entries: lru.New[string, epochEntry[V]](capacity)}
}

// get returns the value cached under key if it is still valid at the
// store's current epoch, bumping its recency, under a "cache_probe" span
// of root (nil: untraced). An entry invalidated by a later write to a
// label in its footprint is evicted by the probe and counted as a miss.
func (c *epochCache[V]) get(root *obs.Span, store *graph.Store, key string) (V, bool) {
	sp := root.Start("cache_probe")
	defer sp.End()
	if c == nil {
		var zero V
		return zero, false
	}
	ent, ok := c.entries.GetValid(key, func(e epochEntry[V]) bool {
		return store.ValidAt(e.fp, e.epoch)
	})
	if ok {
		sp.SetInt("hit", 1)
	}
	return ent.val, ok
}

// put admits a value computed at epoch by a plan with footprint fp,
// evicting least-recently-used entries beyond capacity.
func (c *epochCache[V]) put(key string, val V, epoch uint64, fp graph.Footprint) {
	if c == nil {
		return
	}
	c.entries.Put(key, epochEntry[V]{val: val, epoch: epoch, fp: fp})
}

// invalidate empties the cache and returns how many entries it dropped.
func (c *epochCache[V]) invalidate() int {
	if c == nil {
		return 0
	}
	return c.entries.Clear()
}

// snapshot returns (entries, hits, misses) for /stats and /metrics.
func (c *epochCache[V]) snapshot() (entries int, hits, misses int64) {
	if c == nil {
		return 0, 0, 0
	}
	hits, misses = c.entries.Counters()
	return c.entries.Len(), hits, misses
}
