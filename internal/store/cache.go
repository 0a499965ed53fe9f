package store

import "sync"

// maskCache is the byte-budgeted LRU behind a Store's mask cache. It
// exists for batched and concurrent workloads where many queries touch
// overlapping mask sets: a load of a resident mask is not charged to
// MasksLoaded/BytesRead, so an n-query batch pays each distinct mask
// at most once.
//
// Every load already builds its own header over the mapped pixel file,
// so residency is pure accounting: the cache holds mask ids, never a
// mask, and touch answers the one question a load asks it — was this a
// hit, and how many ids did making it resident evict? Nothing is pinned
// or shared, so a release never calls the cache.
//
// The LRU is an intrusive doubly linked list over a dense slot table
// indexed by the segment's local mask id (id - first). The table grows
// on the first touch past its end. All methods are safe for concurrent
// use.
type maskCache struct {
	mu sync.Mutex
	// budget is the resident-byte target; < 0 means unbounded, 0 keeps
	// nothing resident.
	budget int64
	size   int64
	// head (most recent) and tail (least recent) are slot links.
	head, tail int32
	slots      []cacheSlot
}

// cacheSlot is one local id's place in the LRU. Links hold the
// neighbouring slot's index + 1, so 0 means none and a fresh table
// needs no initialisation.
type cacheSlot struct {
	prev, next int32 // toward the hot and the cold end
	resident   bool
	bytes      int64 // the span's footprint while resident
}

// touch records a load of local id i whose stored span is bytes long.
// A resident id moves to the hot end and the load is a hit; otherwise
// the id becomes resident and the cold end is evicted until the budget
// holds again — possibly i itself, when its span alone exceeds the
// budget — and touch reports how many ids that dropped.
func (c *maskCache) touch(i int64, bytes int) (hit bool, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := int64(len(c.slots)); i >= n {
		c.slots = append(c.slots, make([]cacheSlot, max(i+1, 2*n)-n)...)
	}
	k := int32(i) + 1
	s := &c.slots[i]
	if s.resident {
		if c.head != k {
			c.unlink(k)
			c.pushFront(k)
		}
		return true, 0
	}
	s.resident, s.bytes = true, int64(bytes)
	c.size += s.bytes
	c.pushFront(k)
	return false, c.evictLocked()
}

// setBudget changes the byte budget in place, evicting cold ids until
// the resident bytes fit, and returns how many it evicted. The cache
// itself stays installed, so loads may run throughout.
func (c *maskCache) setBudget(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	return c.evictLocked()
}

// limit returns the byte budget.
func (c *maskCache) limit() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// evictLocked drops ids from the cold end until the resident size is
// within budget and returns how many it dropped.
func (c *maskCache) evictLocked() int64 {
	var evicted int64
	for c.budget >= 0 && c.size > c.budget {
		k := c.tail
		c.unlink(k)
		s := &c.slots[k-1]
		s.resident = false
		c.size -= s.bytes
		evicted++
	}
	return evicted
}

// pushFront links slot k in at the hot end.
func (c *maskCache) pushFront(k int32) {
	s := &c.slots[k-1]
	s.prev, s.next = 0, c.head
	if c.head != 0 {
		c.slots[c.head-1].prev = k
	} else {
		c.tail = k
	}
	c.head = k
}

// unlink takes slot k out of the list.
func (c *maskCache) unlink(k int32) {
	s := &c.slots[k-1]
	if s.prev != 0 {
		c.slots[s.prev-1].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != 0 {
		c.slots[s.next-1].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// residentBytes reports the current cache footprint (tests and
// diagnostics).
func (c *maskCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
