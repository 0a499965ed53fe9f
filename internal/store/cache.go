package store

import (
	"container/list"
	"sync"

	"masksearch/internal/core"
)

// maskCache is a byte-budgeted LRU cache of whole masks, shared by
// every reader of one Store. It exists for batched and concurrent
// workloads where many queries touch overlapping mask sets: a resident
// mask is served without charging MasksLoaded/BytesRead (and without
// the simulated-disk wait), so an n-query batch pays each distinct mask
// at most once.
//
// Ownership protocol — how the cache composes with the Store's views
// and header recycling. A resident mask is a header viewing the mapped
// pixel file, like any loaded mask; the cache owns headers, never
// pixels, and a hit saves the load's charge to the read stats and,
// under a Throttle, its wait on the simulated disk.
//
//   - A mask returned by LoadMask is *pinned* (refcount > 0) while the
//     caller holds it; a pinned header is never recycled, so workers
//     read through a shared header without racing its reuse.
//   - ReleaseMask unpins instead of recycling when the mask is
//     cache-owned. The header returns to the header pool only once the
//     cache has dropped the entry and no pins remain.
//   - Eviction walks the cold (LRU) end whenever the resident bytes
//     exceed the budget, at insert and at unpin. Unpinned entries are
//     evicted and their headers recycled. Entries with exactly one pin
//     are *detached*: dropped from the cache but not recycled — the
//     sole holder keeps reading safely, its eventual ReleaseMask
//     recycles the header through the ordinary path, and a holder that
//     never releases just hands the header to the garbage collector,
//     exactly like an uncached load. Callers that hoard masks therefore
//     cannot grow the cache past its budget. Only entries pinned more
//     than once (several workers mid-read, necessarily transient) are
//     skipped.
//
// All methods are safe for concurrent use.
type maskCache struct {
	mu sync.Mutex
	// budget is the resident-byte target; < 0 means unbounded.
	budget int64
	size   int64
	// lru is most-recent-first; elements hold *cacheEntry.
	lru    *list.List
	byID   map[int64]*cacheEntry
	byMask map[*core.Mask]*cacheEntry
}

type cacheEntry struct {
	id   int64
	m    *core.Mask
	pins int
	el   *list.Element
}

// newMaskCache returns a cache with the given byte budget (< 0:
// unbounded).
func newMaskCache(budget int64) *maskCache {
	return &maskCache{
		budget: budget,
		lru:    list.New(),
		byID:   make(map[int64]*cacheEntry),
		byMask: make(map[*core.Mask]*cacheEntry),
	}
}

// acquire returns the resident mask for id pinned once more, or nil on
// a miss.
func (c *maskCache) acquire(id int64) *core.Mask {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byID[id]
	if !ok {
		return nil
	}
	e.pins++
	c.lru.MoveToFront(e.el)
	return e.m
}

// insert makes a freshly loaded mask resident, pinned once for the
// caller, and returns the canonical mask plus how many entries were
// evicted. When another goroutine raced the same miss and inserted
// first, the loser's header is recycled immediately and the resident
// mask is returned instead, so all callers share one header.
func (c *maskCache) insert(id int64, m *core.Mask) (*core.Mask, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byID[id]; ok {
		e.pins++
		c.lru.MoveToFront(e.el)
		recycle(m)
		return e.m, 0
	}
	e := &cacheEntry{id: id, m: m, pins: 1}
	e.el = c.lru.PushFront(e)
	c.byID[id] = e
	c.byMask[m] = e
	c.size += maskFootprint(m)
	return m, c.evictLocked()
}

// unpin releases one pin on a cache-owned mask, reporting whether the
// mask was cache-owned at all (false: the caller should recycle the
// header itself) and how many entries the unpin let the cache evict.
func (c *maskCache) unpin(m *core.Mask) (bool, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byMask[m]
	if !ok {
		return false, 0
	}
	if e.pins > 0 {
		e.pins--
	}
	return true, c.evictLocked()
}

// evictLocked drops cold entries until the resident size is within
// budget. Unpinned entries have their headers recycled; singly-pinned
// entries are detached — removed from every cache structure without
// recycling, so the one holder keeps exclusive, uncached-load semantics
// (its ReleaseMask recycles the header, or the GC reclaims it). Entries
// pinned more than once are shared between live readers and must stay
// tracked, so they are skipped; they become evictable at unpin time.
// Returns the number of entries dropped.
func (c *maskCache) evictLocked() int64 {
	if c.budget < 0 {
		return 0
	}
	var evicted int64
	for el := c.lru.Back(); el != nil && c.size > c.budget; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.pins <= 1 {
			c.lru.Remove(el)
			delete(c.byID, e.id)
			delete(c.byMask, e.m)
			c.size -= maskFootprint(e.m)
			if e.pins == 0 {
				recycle(e.m)
			}
			evicted++
		}
		el = prev
	}
	return evicted
}

// maskFootprint is the byte size a mask charges against the cache
// budget: the bytes its view spans, so an RLE-backed mask is accounted
// in compressed bytes and the same budget holds proportionally more
// compressed masks.
func maskFootprint(m *core.Mask) int64 {
	return int64(len(m.Bytes) + len(m.RLE) + 4*len(m.Pix))
}

// residentBytes reports the current cache footprint (tests and
// diagnostics).
func (c *maskCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// residentMasks reports how many masks are cached.
func (c *maskCache) residentMasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byID)
}
