package store

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"masksearch/internal/core"
)

// ShardedStore serves a sharded database directory: S shard segments,
// each a self-contained Store over a contiguous mask-id range, behind
// the same MaskStore surface as a single segment. Loads route to the
// owning shard by id, so each shard's file descriptor, LRU cache arena
// and ReadStats serve only its own traffic — concurrent readers on
// different shards never contend on one file or one cache lock. The
// aggregate Stats/LifetimeStats are the sums of the per-shard
// counters (ShardStats exposes the split).
//
// All methods are safe for concurrent use, like Store's. The shard
// list itself can grow at runtime: WAL compaction on a sharded layout
// publishes each compacted batch as a fresh shard through addShard. The
// list is an immutable snapshot behind an atomic pointer — routing a
// load takes no lock — and mu serializes the writers that replace it or
// reconfigure every shard.
type ShardedStore struct {
	dir   string
	codec string
	// genVersion is the top-level Manifest.GenVersion, 0 for
	// ingested/legacy data.
	genVersion int
	w, h       int

	set atomic.Pointer[shardSet]

	mu sync.Mutex
	// cacheBytes remembers the configured total budget, split across
	// the per-shard arenas by cacheShare.
	cacheBytes int64
	thr        Throttle
}

// shardSet is one immutable snapshot of the shard list.
type shardSet struct {
	shards   []*Store
	firstIDs []int64 // ascending; shard i serves [firstIDs[i], firstIDs[i]+shards[i].NumMasks())
	numMasks int
}

// with returns a copy of set extended by seg.
func (set *shardSet) with(seg *Store) *shardSet {
	return &shardSet{
		shards:   append(set.shards[:len(set.shards):len(set.shards)], seg),
		firstIDs: append(set.firstIDs[:len(set.firstIDs):len(set.firstIDs)], seg.base+1),
		numMasks: set.numMasks + seg.NumMasks(),
	}
}

// OpenSharded opens a sharded database directory (a top-level
// manifest with a shard list, as written by GenerateSharded) and
// returns the store together with the full concatenated catalog.
func OpenSharded(dir string) (*ShardedStore, *Catalog, error) {
	var man Manifest
	if err := readJSON(filepath.Join(dir, manifestFile), &man); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if len(man.Shards) == 0 {
		return nil, nil, fmt.Errorf("store: open %s: not a sharded database (no shard list in manifest)", dir)
	}
	if !validCodec(man.Codec) {
		return nil, nil, fmt.Errorf("store: open %s: unknown codec %q", dir, man.Codec)
	}
	ss := &ShardedStore{dir: dir, codec: man.Codec, genVersion: man.GenVersion}
	set := &shardSet{}
	ss.set.Store(set)
	var entries []Entry
	wantFirst := int64(1)
	for _, info := range man.Shards {
		seg, segCat, err := Open(filepath.Join(dir, info.Dir))
		if err != nil {
			ss.Close()
			return nil, nil, fmt.Errorf("store: open %s: shard %s: %w", dir, info.Dir, err)
		}
		if seg.codec != man.Codec {
			seg.Close()
			ss.Close()
			return nil, nil, fmt.Errorf("store: open %s: shard %s uses codec %q, manifest says %q — regenerate the dataset",
				dir, info.Dir, seg.codec, man.Codec)
		}
		if seg.base+1 != info.FirstID || seg.NumMasks() != info.NumMasks || info.FirstID != wantFirst {
			seg.Close()
			ss.Close()
			return nil, nil, fmt.Errorf("store: open %s: shard %s covers ids [%d, %d] but the manifest maps [%d, %d) starting at %d — regenerate the dataset",
				dir, info.Dir, seg.base+1, seg.base+int64(seg.NumMasks()), info.FirstID, info.FirstID+int64(info.NumMasks), wantFirst)
		}
		set = set.with(seg)
		ss.set.Store(set)
		entries = append(entries, segCat.Entries()...)
		wantFirst = info.FirstID + int64(info.NumMasks)
	}
	if set.numMasks != man.NumMasks {
		ss.Close()
		return nil, nil, fmt.Errorf("store: open %s: shards hold %d masks, manifest says %d", dir, set.numMasks, man.NumMasks)
	}
	ss.w, ss.h = set.shards[0].w, set.shards[0].h
	return ss, NewCatalog(entries), nil
}

// Dir returns the top-level database directory.
func (ss *ShardedStore) Dir() string { return ss.dir }

// NumShards returns the number of shard segments.
func (ss *ShardedStore) NumShards() int { return len(ss.set.Load().shards) }

// NumMasks returns the total number of stored masks across shards.
func (ss *ShardedStore) NumMasks() int { return ss.set.Load().numMasks }

// MaskW and MaskH return the common mask dimensions.
func (ss *ShardedStore) MaskW() int { return ss.w }
func (ss *ShardedStore) MaskH() int { return ss.h }

// DataBytes returns the total logical pixel bytes across shards.
func (ss *ShardedStore) DataBytes() int64 {
	return int64(ss.NumMasks()) * int64(ss.w) * int64(ss.h)
}

// Codec returns the on-disk pixel encoding shared by every shard.
func (ss *ShardedStore) Codec() string { return ss.codec }

// GenVersion reports the generator version from the top-level
// manifest (0 for ingested/legacy data).
func (ss *ShardedStore) GenVersion() int { return ss.genVersion }

// StoredBytes returns the on-disk mask data size summed over shards.
func (ss *ShardedStore) StoredBytes() int64 {
	var n int64
	for _, s := range ss.set.Load().shards {
		n += s.StoredBytes()
	}
	return n
}

// Append returns ErrReadOnly: the sharded layout itself has no WAL.
// Open the database through OpenIngest to append — its Compact folds
// acknowledged appends into a fresh shard — or open a single-file
// layout, which compacts in place.
func (ss *ShardedStore) Append(ctx context.Context, masks []IngestMask) ([]int64, error) {
	return nil, fmt.Errorf("store: append to read-only sharded layout at %s (%d shards): %w; compact through OpenIngest or open a single-file layout",
		ss.dir, ss.NumShards(), ErrReadOnly)
}

// Close closes and unmaps every shard, returning the first error.
func (ss *ShardedStore) Close() error {
	var ferr error
	for _, s := range ss.set.Load().shards {
		if err := s.Close(); err != nil && ferr == nil {
			ferr = err
		}
	}
	return ferr
}

// addShard publishes one additional shard segment opened from a
// directory compaction just wrote and fsynced. The segment must
// continue the id-space exactly (FirstID == NumMasks+1). The new
// shard inherits the throttle, and the configured cache budget is
// re-split over all shards: existing arenas shrink in place (evicting
// cold ids, counted as CacheEvicted) while loads keep running, and the
// new shard gets an arena of its share before it is published.
func (ss *ShardedStore) addShard(seg *Store) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	set := ss.set.Load()
	if seg.base != int64(set.numMasks) {
		return fmt.Errorf("store: addShard: segment starts at id %d, want %d", seg.base+1, set.numMasks+1)
	}
	if seg.w != ss.w || seg.h != ss.h {
		return fmt.Errorf("store: addShard: segment masks are %dx%d, store holds %dx%d", seg.w, seg.h, ss.w, ss.h)
	}
	seg.SetThrottle(ss.thr)
	if n := ss.cacheBytes; n != 0 {
		total := len(set.shards) + 1
		for i, s := range set.shards {
			s.life.cacheEvicted.Add(s.cache.setBudget(cacheShare(n, i, total)))
		}
		seg.cache = &maskCache{budget: cacheShare(n, total-1, total)}
	}
	ss.set.Store(set.with(seg))
	return nil
}

// ShardOf returns the index of the shard owning id. Out-of-range ids
// map to the nearest shard; the segment's own id check rejects them.
func (ss *ShardedStore) ShardOf(id int64) int { return ss.set.Load().shardOf(id) }

func (set *shardSet) shardOf(id int64) int {
	// firstIDs is ascending: find the last shard starting at or below id.
	i := sort.Search(len(set.firstIDs), func(i int) bool { return set.firstIDs[i] > id }) - 1
	return max(0, i)
}

// shardFor resolves id to its owning shard, validating the range
// against the current mask count.
func (ss *ShardedStore) shardFor(id int64) (*Store, error) {
	set := ss.set.Load()
	if id < 1 || id > int64(set.numMasks) {
		return nil, fmt.Errorf("store: mask id %d out of range [1, %d]", id, set.numMasks)
	}
	return set.shards[set.shardOf(id)], nil
}

// LoadMask returns one full mask from its owning shard, charged (or
// counted as a cache hit) there. The Store contract — a read-only view
// of the shard's mapping, valid until Close, ReleaseMask when done —
// applies unchanged.
func (ss *ShardedStore) LoadMask(id int64) (*core.Mask, error) {
	s, err := ss.shardFor(id)
	if err != nil {
		return nil, err
	}
	return s.LoadMask(id)
}

// LoadRegion reads a sub-rectangle of one mask from its owning shard.
func (ss *ShardedStore) LoadRegion(id int64, r core.Rect) (*core.Mask, error) {
	s, err := ss.shardFor(id)
	if err != nil {
		return nil, err
	}
	return s.LoadRegion(id, r)
}

// ReleaseMask returns a mask obtained from LoadMask: its header goes
// back to the header pool, whichever shard served it.
func (ss *ShardedStore) ReleaseMask(m *core.Mask) {
	if m != nil && m.W == ss.w && m.H == ss.h {
		recycle(m)
	}
}

// SetCacheBytes budgets the per-shard LRU cache arenas. A total n != 0
// gives every shard an arena — a positive n is split by cacheShare, so
// a share of 0 is an arena that keeps nothing resident (every load
// still counts as a miss), and n < 0 makes each arena unbounded; n == 0
// removes every arena. Per-shard arenas mean one hot shard cannot evict
// another shard's resident ids, at the cost of not reassigning idle
// shards' budget. Reconfigure only while no loads are in flight.
func (ss *ShardedStore) SetCacheBytes(n int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.cacheBytes = n
	shards := ss.set.Load().shards
	for i, seg := range shards {
		seg.cache = nil
		if n != 0 {
			seg.cache = &maskCache{budget: cacheShare(n, i, len(shards))}
		}
	}
}

// cacheShare is shard i's arena budget out of a total n over s shards:
// an even split whose remainder goes to the first n%s shards, or n
// itself when n < 0 (unbounded).
func cacheShare(n int64, i, s int) int64 {
	if n < 0 {
		return n
	}
	per := n / int64(s)
	if int64(i) < n%int64(s) {
		per++
	}
	return per
}

// CacheBytes reports the configured total cache budget across shards.
func (ss *ShardedStore) CacheBytes() int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.cacheBytes
}

// SetThrottle installs the simulated read-bandwidth limit on every
// shard. Each shard models its own disk timeline — the point of
// sharding is per-shard parallel I/O — so the aggregate simulated
// bandwidth is S times t.BytesPerSec.
func (ss *ShardedStore) SetThrottle(t Throttle) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.thr = t
	for _, s := range ss.set.Load().shards {
		s.SetThrottle(t)
	}
}

// ResetStats zeroes every shard's resettable counters.
func (ss *ShardedStore) ResetStats() {
	for _, s := range ss.set.Load().shards {
		s.ResetStats()
	}
}

// Stats returns the read counters since the last reset, aggregated
// over shards (the exact sum of ShardStats).
func (ss *ShardedStore) Stats() ReadStats {
	var out ReadStats
	for _, s := range ss.set.Load().shards {
		out.add(s.Stats())
	}
	return out
}

// LifetimeStats returns the never-reset counters aggregated over
// shards.
func (ss *ShardedStore) LifetimeStats() ReadStats {
	var out ReadStats
	for _, s := range ss.set.Load().shards {
		out.add(s.LifetimeStats())
	}
	return out
}

// ShardStats returns each shard's resettable read counters, indexed
// like ShardOf. Summing them reproduces Stats exactly.
func (ss *ShardedStore) ShardStats() []ReadStats {
	shards := ss.set.Load().shards
	out := make([]ReadStats, len(shards))
	for i, s := range shards {
		out[i] = s.Stats()
	}
	return out
}

// add accumulates o into s, field by field.
func (s *ReadStats) add(o ReadStats) {
	s.MasksLoaded += o.MasksLoaded
	s.RegionReads += o.RegionReads
	s.BytesRead += o.BytesRead
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvicted += o.CacheEvicted
	s.TailLoads += o.TailLoads
}
