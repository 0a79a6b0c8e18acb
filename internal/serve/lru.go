package serve

import (
	"container/list"
	"sync"
)

// lru is the bounded LRU map under BaseCache and CTIStation. get builds a
// missing value under the lock, which also deduplicates concurrent misses
// for one key (the second caller hits). Values are shared with callers and
// must be immutable; the lock only guards the index and the counters.
type lru[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // of *lruEntry[K, V], front = most recent
	idx       map[K]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// init empties the map and bounds it to capacity entries (<= 0 selects 64).
func (c *lru[K, V]) init(capacity int) {
	if capacity <= 0 {
		capacity = 64
	}
	c.capacity = capacity
	c.order = list.New()
	c.idx = make(map[K]*list.Element)
}

// get returns key's value, building and inserting it on a miss. A hit that
// fresh (when non-nil) rejects is dropped as an eviction and rebuilt. A
// failed build counts as a miss and inserts nothing.
func (c *lru[K, V]) get(key K, fresh func(V) bool, build func() (V, error)) (V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		e := el.Value.(*lruEntry[K, V])
		if fresh == nil || fresh(e.val) {
			c.hits++
			c.order.MoveToFront(el)
			return e.val, nil
		}
		c.evict(el)
	}
	c.misses++
	v, err := build()
	if err != nil {
		return v, err
	}
	c.idx[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: v})
	for c.order.Len() > c.capacity {
		c.evict(c.order.Back())
	}
	return v, nil
}

// drop evicts every entry whose key matches and returns how many it
// dropped.
func (c *lru[K, V]) drop(match func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*lruEntry[K, V]).key) {
			c.evict(el)
			n++
		}
		el = next
	}
	return n
}

// evict unlinks one entry. The caller holds c.mu.
func (c *lru[K, V]) evict(el *list.Element) {
	c.order.Remove(el)
	delete(c.idx, el.Value.(*lruEntry[K, V]).key)
	c.evictions++
}

// Len returns the current entry count.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns the cumulative hit/miss/eviction counts.
func (c *lru[K, V]) Counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
