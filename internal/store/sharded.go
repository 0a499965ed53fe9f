package store

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

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
// publishes each compacted batch as a fresh shard through addShard, so
// the list is guarded by mu (loads take the read lock, addShard the
// write lock).
type ShardedStore struct {
	dir   string
	codec string
	// genVersion is the top-level Manifest.GenVersion, 0 for
	// ingested/legacy data.
	genVersion int

	mu       sync.RWMutex
	shards   []*Store
	firstIDs []int64 // ascending; shard i serves [firstIDs[i], firstIDs[i]+shards[i].NumMasks())
	numMasks int
	w, h     int
	// cacheBytes remembers the configured total budget (the per-shard
	// arenas each get an even slice of it).
	cacheBytes int64
	thr        Throttle
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
		if len(ss.shards) > 0 {
			seg.sharePools(ss.shards[0])
		}
		ss.shards = append(ss.shards, seg)
		ss.firstIDs = append(ss.firstIDs, info.FirstID)
		ss.numMasks += seg.NumMasks()
		entries = append(entries, segCat.Entries()...)
		wantFirst = info.FirstID + int64(info.NumMasks)
	}
	if ss.numMasks != man.NumMasks {
		ss.Close()
		return nil, nil, fmt.Errorf("store: open %s: shards hold %d masks, manifest says %d", dir, ss.numMasks, man.NumMasks)
	}
	ss.w, ss.h = ss.shards[0].w, ss.shards[0].h
	return ss, NewCatalog(entries), nil
}

// Dir returns the top-level database directory.
func (ss *ShardedStore) Dir() string { return ss.dir }

// NumShards returns the number of shard segments.
func (ss *ShardedStore) NumShards() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.shards)
}

// NumMasks returns the total number of stored masks across shards.
func (ss *ShardedStore) NumMasks() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.numMasks
}

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
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var n int64
	for _, s := range ss.shards {
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

// Close releases every shard, returning the first error.
func (ss *ShardedStore) Close() error {
	ss.mu.RLock()
	shards := ss.shards
	ss.mu.RUnlock()
	var ferr error
	for _, s := range shards {
		if err := s.Close(); err != nil && ferr == nil {
			ferr = err
		}
	}
	return ferr
}

// addShard publishes one additional shard segment opened from a
// directory compaction just wrote and fsynced. The segment must
// continue the id-space exactly (FirstID == NumMasks+1). The new
// shard joins the shared buffer pool, inherits the throttle, and gets
// an even slice of the configured cache budget without disturbing the
// arenas (and resident masks) of existing shards.
func (ss *ShardedStore) addShard(seg *Store) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if seg.base != int64(ss.numMasks) {
		return fmt.Errorf("store: addShard: segment starts at id %d, want %d", seg.base+1, ss.numMasks+1)
	}
	if seg.w != ss.w || seg.h != ss.h {
		return fmt.Errorf("store: addShard: segment masks are %dx%d, store holds %dx%d", seg.w, seg.h, ss.w, ss.h)
	}
	seg.sharePools(ss.shards[0])
	seg.SetThrottle(ss.thr)
	if n := ss.cacheBytes; n != 0 {
		per := n
		if n > 0 {
			per = n / int64(len(ss.shards)+1)
		}
		seg.SetCacheBytes(per)
	}
	ss.shards = append(ss.shards, seg)
	ss.firstIDs = append(ss.firstIDs, seg.base+1)
	ss.numMasks += seg.NumMasks()
	return nil
}

// ShardOf returns the index of the shard owning id. Out-of-range ids
// map to the nearest shard; the segment's own id check rejects them.
// It implements core.ShardedLoader, so the engine can group
// verification work per shard.
func (ss *ShardedStore) ShardOf(id int64) int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.shardOfLocked(id)
}

func (ss *ShardedStore) shardOfLocked(id int64) int {
	// firstIDs is ascending: find the last shard starting at or below id.
	i := sort.Search(len(ss.firstIDs), func(i int) bool { return ss.firstIDs[i] > id }) - 1
	return max(0, i)
}

// shardFor resolves id to its owning shard under the read lock,
// validating the range against the current mask count.
func (ss *ShardedStore) shardFor(id int64) (*Store, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if id < 1 || id > int64(ss.numMasks) {
		return nil, fmt.Errorf("store: mask id %d out of range [1, %d]", id, ss.numMasks)
	}
	return ss.shards[ss.shardOfLocked(id)], nil
}

// LoadMask reads one full mask from its owning shard (or that shard's
// cache arena). The Store contract — pooled byte-backed buffers,
// read-only cached masks, ReleaseMask when done — applies unchanged.
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

// ReleaseMask returns a mask obtained from LoadMask. A cache-resident
// mask is unpinned in its owning shard's arena; any other mask goes
// back to the shared buffer pools. The probe loops over shard caches
// because a mask does not carry its id; S is small, so this stays
// cheap next to the load it retires.
func (ss *ShardedStore) ReleaseMask(m *core.Mask) {
	if m == nil || m.W != ss.w || m.H != ss.h {
		return
	}
	ss.mu.RLock()
	shards := ss.shards
	ss.mu.RUnlock()
	for _, s := range shards {
		if s.releaseCached(m) {
			return
		}
	}
	shards[0].recycle(m)
}

// SetCacheBytes budgets the per-shard LRU cache arenas. The total
// budget n is split evenly across shards (each arena evicts
// independently against its slice; the first n%S shards absorb the
// remainder), n == 0 removes every arena, and n < 0 makes each arena
// unbounded. Per-shard arenas mean one hot shard cannot evict another
// shard's resident masks, at the cost of not reassigning idle shards'
// budget. Reconfigure only while no loads are in flight.
func (ss *ShardedStore) SetCacheBytes(n int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.cacheBytes = n
	s := int64(len(ss.shards))
	for i, seg := range ss.shards {
		per := n
		if n > 0 {
			per = n / s
			if int64(i) < n%s {
				per++
			}
		}
		seg.SetCacheBytes(per)
	}
}

// CacheBytes reports the configured total cache budget across shards.
func (ss *ShardedStore) CacheBytes() int64 {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
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
	for _, s := range ss.shards {
		s.SetThrottle(t)
	}
}

// ResetStats zeroes every shard's resettable counters.
func (ss *ShardedStore) ResetStats() {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for _, s := range ss.shards {
		s.ResetStats()
	}
}

// Stats returns the read counters since the last reset, aggregated
// over shards (the exact sum of ShardStats).
func (ss *ShardedStore) Stats() ReadStats {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var out ReadStats
	for _, s := range ss.shards {
		out.add(s.Stats())
	}
	return out
}

// LifetimeStats returns the never-reset counters aggregated over
// shards.
func (ss *ShardedStore) LifetimeStats() ReadStats {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var out ReadStats
	for _, s := range ss.shards {
		out.add(s.LifetimeStats())
	}
	return out
}

// ShardStats returns each shard's resettable read counters, indexed
// like ShardOf. Summing them reproduces Stats exactly.
func (ss *ShardedStore) ShardStats() []ReadStats {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	out := make([]ReadStats, len(ss.shards))
	for i, s := range ss.shards {
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
