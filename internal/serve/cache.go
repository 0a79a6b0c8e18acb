package serve

import (
	"snowcat/internal/ctgraph"
	"snowcat/internal/pic"
)

// cacheKey identifies one BaseContext: the snapshot whose encoder and
// type-embedding weights the context bakes in, and the CTI skeleton it
// covers. Both halves are pointer identities — a hot-swap changes the
// snapshot pointer, so every context of the old model stops matching
// without any explicit epoch counter, and Invalidate reclaims the entries.
type cacheKey struct {
	snap *Snapshot
	base *ctgraph.Base
}

// BaseCache is a bounded LRU of per-CTI pic.BaseContexts. A context
// amortises the schedule-independent feature rows (encoder + vertex-type
// embedding per vertex) across every candidate schedule of one CTI —
// exactly the work the paper's 190:1 triage ratio depends on keeping off
// the per-request path. Contexts are immutable and shared by all scoring
// workers. Misses build the context under the lock, which also
// deduplicates concurrent misses for the same key (the second caller hits).
type BaseCache struct {
	lru[cacheKey, *pic.BaseContext]
}

// NewBaseCache returns an empty cache holding at most capacity contexts
// (capacity <= 0 selects 64).
func NewBaseCache(capacity int) *BaseCache {
	c := &BaseCache{}
	c.init(capacity)
	return c
}

// Get returns the BaseContext of (snap, base), building and inserting it
// on a miss. base must be non-nil; callers with base-less graphs (e.g.
// restored from gob) skip the cache and predict without a context.
func (c *BaseCache) Get(snap *Snapshot, base *ctgraph.Base) *pic.BaseContext {
	bc, _ := c.get(cacheKey{snap: snap, base: base}, nil, func() (*pic.BaseContext, error) {
		return snap.Model.NewBaseContext(base, snap.TC), nil
	})
	return bc
}

// Invalidate drops every context built against snap — the swap-time
// reclamation (stale entries could never hit again, their key embeds the
// old snapshot pointer, but dropping them eagerly frees the feature
// matrices). Returns how many entries were dropped; they are counted as
// evictions.
func (c *BaseCache) Invalidate(snap *Snapshot) int {
	return c.drop(func(k cacheKey) bool { return k.snap == snap })
}
