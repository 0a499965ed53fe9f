// Package store provides the on-disk mask database: a generator for
// synthetic datasets, the catalog of mask metadata, and a Store that
// reads masks while accounting every byte (for the paper's
// masks-loaded metrics) and optionally simulating a bandwidth-limited
// disk.
//
// Layout of a database directory:
//
//	manifest.json  — the generation Spec plus derived counts and codec
//	catalog.json   — []Entry, one row per mask
//	masks.bin      — raw uint8 pixels, mask id i at offset (i-1)*W*H
//
// With the RLE codec (Manifest.Codec == CodecRLE) the pixel file is
// replaced by:
//
//	masks.rle      — per-mask core.EncodeRLE streams, concatenated
//	masks.rle.idx  — offset column: N+1 little-endian uint64 values,
//	                 mask i's stream at [off[i], off[i+1])
package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"masksearch/internal/core"
)

// ErrReadOnly is returned by Append on stores without an ingestion
// path (a plain Store or ShardedStore opened directly rather than
// through OpenIngest's WAL wrapper).
var ErrReadOnly = errors.New("store: read-only store (no WAL; open with OpenIngest to append)")

// ReadStats counts storage traffic since the last ResetStats.
type ReadStats struct {
	// MasksLoaded counts whole-mask reads that actually hit the disk
	// (a cache hit serves the mask without touching this counter).
	MasksLoaded int64
	// RegionReads counts sub-rectangle reads (the ArraySlice baseline).
	RegionReads int64
	// BytesRead counts logical pixel bytes served from disk.
	BytesRead int64
	// CacheHits counts LoadMask calls served from the mask cache
	// without disk traffic. Zero when no cache is configured.
	CacheHits int64
	// CacheMisses counts LoadMask calls that went to disk while a
	// cache was configured (every miss is also a MasksLoaded).
	CacheMisses int64
	// CacheEvicted counts masks the cache dropped to stay within its
	// byte budget.
	CacheEvicted int64
	// TailLoads counts whole-mask loads served from the WAL tail (masks
	// appended but not yet compacted into the base layout). Zero on
	// stores without an ingestion path.
	TailLoads int64
}

// Sub returns the counter deltas of s relative to an earlier snapshot
// prev. Benchmarks and the serving metrics endpoint bracket work with
// two snapshots and report the difference, which stays correct even
// when code in between resets the resettable counters (use
// LifetimeStats snapshots for that case).
func (s ReadStats) Sub(prev ReadStats) ReadStats {
	return ReadStats{
		MasksLoaded:  s.MasksLoaded - prev.MasksLoaded,
		RegionReads:  s.RegionReads - prev.RegionReads,
		BytesRead:    s.BytesRead - prev.BytesRead,
		CacheHits:    s.CacheHits - prev.CacheHits,
		CacheMisses:  s.CacheMisses - prev.CacheMisses,
		CacheEvicted: s.CacheEvicted - prev.CacheEvicted,
		TailLoads:    s.TailLoads - prev.TailLoads,
	}
}

// Throttle simulates a disk limited to BytesPerSec of read bandwidth;
// the zero value disables throttling.
type Throttle struct {
	BytesPerSec float64
}

// ShardInfo locates one shard of a sharded database inside the
// top-level manifest.
type ShardInfo struct {
	// Dir is the shard directory name, relative to the database dir.
	Dir string `json:"dir"`
	// FirstID is the first (global) mask id stored in the shard; the
	// shard holds the contiguous range [FirstID, FirstID+NumMasks).
	FirstID int64 `json:"first_id"`
	// NumMasks is the shard's mask count.
	NumMasks int `json:"num_masks"`
}

// Manifest describes a generated database (or one segment of a
// sharded database).
type Manifest struct {
	Spec     Spec `json:"spec"`
	NumMasks int  `json:"num_masks"`
	// FirstID is the first mask id of a sharded segment (its masks.bin
	// holds ids [FirstID, FirstID+NumMasks) at local offsets). 0 or 1
	// means an ordinary unsharded segment starting at id 1.
	FirstID int64 `json:"first_id,omitempty"`
	// Shards, when non-empty, marks a sharded database: this directory
	// holds no masks.bin of its own, only the listed shard segments.
	// Ranges are contiguous and ascending, covering [1, NumMasks].
	Shards []ShardInfo `json:"shards,omitempty"`
	// Codec names the pixel encoding of the mask files (CodecRaw or
	// CodecRLE). OpenAny detects it transparently.
	Codec string `json:"codec,omitempty"`
	// GenVersion records the generator version that produced a
	// synthetic dataset, so harnesses regenerate when the generator's
	// output changed for the same Spec. 0 on ingested/legacy data.
	GenVersion int `json:"gen_version,omitempty"`
}

// MaskStore is the read surface shared by the single-segment Store
// and the ShardedStore: everything the DB facade and the engine need
// to load masks, account traffic and manage the cache. Use OpenAny to
// get the right implementation for a database directory.
type MaskStore interface {
	LoadMask(id int64) (*core.Mask, error)
	LoadRegion(id int64, r core.Rect) (*core.Mask, error)
	ReleaseMask(m *core.Mask)
	// Append durably stores new masks and returns their assigned ids,
	// acknowledging only after the data is fsynced. Mask ids in the
	// input entries are ignored; the store assigns the next contiguous
	// ids. Stores without an ingestion path return ErrReadOnly.
	Append(ctx context.Context, masks []IngestMask) ([]int64, error)
	NumMasks() int
	MaskW() int
	MaskH() int
	DataBytes() int64
	// Codec names the on-disk pixel encoding (CodecRaw or CodecRLE).
	Codec() string
	// StoredBytes is the on-disk size of the mask data: DataBytes for
	// the raw codec, the compressed stream size for RLE. The ratio
	// DataBytes/StoredBytes is the compression ratio.
	StoredBytes() int64
	// GenVersion reports the synthetic generator version recorded in
	// the manifest (Manifest.GenVersion), 0 for ingested/legacy data.
	GenVersion() int
	Dir() string
	Close() error
	SetCacheBytes(n int64)
	CacheBytes() int64
	SetThrottle(t Throttle)
	ResetStats()
	Stats() ReadStats
	LifetimeStats() ReadStats
}

// Store reads masks from a database directory. Masks are served
// byte-backed (core.Mask.Bytes): the stored uint8 pixels are read
// straight into the mask buffer with no per-pixel float conversion,
// and ReleaseMask recycles those buffers through a sync.Pool so a
// steady verification stream allocates nothing. All methods are safe
// for concurrent use; the parallel engine loads from many goroutines.
// IngestMask is one mask submitted to MaskStore.Append: its catalog
// metadata (the MaskID field is assigned by the store) plus its raw
// uint8 pixels, length MaskW*MaskH.
type IngestMask struct {
	Entry Entry
	Pix   []byte
}

type Store struct {
	dir  string
	f    *os.File
	w, h int
	// codec is the pixel encoding of f (CodecRaw or CodecRLE).
	codec string
	// genVersion is Manifest.GenVersion, 0 for ingested/legacy data.
	genVersion int
	// rle, for the RLE codec, points at the immutable snapshot loads
	// work from: the offset column and the row-directory table.
	// Compaction publishes a new snapshot via extendRLE (copy-on-write)
	// before bumping numMasks, so concurrent loads always see one
	// covering every visible id.
	rle atomic.Pointer[rleIndex]
	// numMasks is atomic because compaction extends the segment
	// (extend) while concurrent queries route loads through checkID.
	numMasks atomic.Int64
	// base offsets mask ids for sharded segments: the store serves ids
	// (base, base+numMasks], and id i lives at offset (i-base-1)*W*H.
	// 0 for ordinary unsharded stores.
	base int64

	// maskPool recycles whole-mask buffers between LoadMask and
	// ReleaseMask. Pooled masks always have len(Bytes) == w*h. It is a
	// pointer so a ShardedStore can point every segment at one shared
	// pool: buffers are interchangeable across same-dimension shards.
	maskPool *sync.Pool
	// rlePool recycles RLE-backed masks the same way on an RLE store.
	// Pooled masks have cap(RLE) >= rleCap, which fits every stream the
	// encoder can produce, so a steady load/release stream reslices and
	// never allocates. Shared across shards like maskPool.
	rlePool *sync.Pool
	rleCap  int

	// cache, when non-nil, keeps recently loaded masks resident so
	// overlapping queries stop paying disk reads for shared masks. It
	// sits between LoadMask/ReleaseMask and maskPool: resident masks
	// are pinned while callers hold them, and their buffers reach the
	// pool only on eviction. Set via SetCacheBytes.
	cache *maskCache

	statsMu sync.Mutex
	stats   ReadStats
	// lifetime accumulates the same counters but is never reset, so
	// callers that bracket code which resets stats internally (e.g.
	// msbench sampling around a report) still get true totals.
	lifetime ReadStats
	thr      Throttle
	// thrFree is the simulated disk's next-available time: concurrent
	// readers reserve back-to-back slots on one timeline so the
	// aggregate bandwidth stays at BytesPerSec no matter how many
	// engine workers read at once.
	thrFree time.Time
}

// Open opens a single-segment database directory created by Generate
// (or one shard segment of a sharded database) and returns the store
// together with its catalog. It fails on a sharded database's
// top-level directory; use OpenAny to handle either layout.
func Open(dir string) (*Store, *Catalog, error) {
	var man Manifest
	if err := readJSON(filepath.Join(dir, manifestFile), &man); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if len(man.Shards) > 0 {
		return nil, nil, fmt.Errorf("store: open %s: sharded database (%d shards); open it with OpenAny or OpenSharded", dir, len(man.Shards))
	}
	var entries []Entry
	if err := readJSON(filepath.Join(dir, catalogFile), &entries); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// The catalog must agree with the manifest exactly: a longer
	// catalog would advertise ids whose pixels don't exist, a shorter
	// one would lose metadata for stored masks. Recovery repairs an
	// over-long catalog left by a crashed compaction before reopening.
	if len(entries) != man.NumMasks {
		return nil, nil, fmt.Errorf("store: open %s: catalog has %d rows, manifest says %d masks — inconsistent dataset",
			dir, len(entries), man.NumMasks)
	}
	if !validCodec(man.Codec) {
		return nil, nil, fmt.Errorf("store: open %s: unknown codec %q", dir, man.Codec)
	}
	name := masksFile
	if man.Codec == CodecRLE {
		name = masksRLEFile
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	spec := man.Spec.withDefaults()
	s := &Store{
		dir: dir, f: f, w: spec.W, h: spec.H,
		codec:      man.Codec,
		genVersion: man.GenVersion,
		base:       max(0, man.FirstID-1),
		maskPool:   &sync.Pool{},
		rlePool:    &sync.Pool{},
		rleCap:     core.RLEBound(spec.W, spec.H),
	}
	// Fail fast on a truncated or corrupted mask file: without this
	// check a short pixel file only surfaces mid-query as a confusing
	// ReadAt error on whatever mask happens to fall past the end.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if man.Codec == CodecRLE {
		offs, err := readOffsets(filepath.Join(dir, masksRLEIndexFile), man.NumMasks)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		if want := offs[len(offs)-1]; fi.Size() != want {
			f.Close()
			return nil, nil, fmt.Errorf("store: open %s: masks.rle is %d bytes, offset column says %d — truncated or corrupted dataset",
				dir, fi.Size(), want)
		}
		s.rle.Store(&rleIndex{offsets: offs, dirs: []*rleDirs{newRLEDirs(0, man.NumMasks, spec.H)}})
	} else if want := int64(man.NumMasks) * int64(spec.W) * int64(spec.H); fi.Size() != want {
		f.Close()
		return nil, nil, fmt.Errorf("store: open %s: masks.bin is %d bytes, want exactly %d (%d masks of %dx%d) — truncated or corrupted dataset",
			dir, fi.Size(), want, man.NumMasks, spec.W, spec.H)
	}
	s.numMasks.Store(int64(man.NumMasks))
	return s, NewCatalog(entries), nil
}

// readOffsets reads and validates an RLE offset column of n masks.
func readOffsets(path string, n int) ([]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) != 8*(n+1) {
		return nil, fmt.Errorf("store: offset column %s holds %d bytes, want %d (%d masks)",
			filepath.Base(path), len(b), 8*(n+1), n)
	}
	offs := make([]int64, n+1)
	for i := range offs {
		offs[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		if offs[i] < 0 || (i > 0 && offs[i] < offs[i-1]) {
			return nil, fmt.Errorf("store: offset column %s: offsets not monotone at entry %d", filepath.Base(path), i)
		}
	}
	if offs[0] != 0 {
		return nil, fmt.Errorf("store: offset column %s: first offset is %d, want 0", filepath.Base(path), offs[0])
	}
	return offs, nil
}

// OpenAny opens a database directory of either layout: it returns a
// plain *Store for a single-segment database and a *ShardedStore for
// a sharded one (manifest with a shard list). The DB facade opens
// through it so sharding stays transparent to callers.
func OpenAny(dir string) (MaskStore, *Catalog, error) {
	var man Manifest
	if err := readJSON(filepath.Join(dir, manifestFile), &man); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if len(man.Shards) > 0 {
		return OpenSharded(dir)
	}
	st, cat, err := Open(dir)
	if err != nil {
		return nil, nil, err
	}
	return st, cat, nil
}

// Dir returns the database directory.
func (s *Store) Dir() string { return s.dir }

// NumMasks returns the number of stored masks.
func (s *Store) NumMasks() int { return int(s.numMasks.Load()) }

// MaskW and MaskH return the common mask dimensions.
func (s *Store) MaskW() int { return s.w }
func (s *Store) MaskH() int { return s.h }

// DataBytes returns the total logical pixel bytes (NumMasks * W * H),
// independent of the codec.
func (s *Store) DataBytes() int64 { return s.numMasks.Load() * int64(s.w) * int64(s.h) }

// Codec returns the on-disk pixel encoding.
func (s *Store) Codec() string { return s.codec }

// GenVersion reports the generator version from the manifest (0 for
// ingested/legacy data).
func (s *Store) GenVersion() int { return s.genVersion }

// StoredBytes returns the on-disk size of the mask data.
func (s *Store) StoredBytes() int64 {
	if s.codec == CodecRLE {
		offs := s.rle.Load().offsets
		return offs[len(offs)-1]
	}
	return s.DataBytes()
}

// Append returns ErrReadOnly: a bare segment has no WAL to make an
// append durable. Open the database through OpenIngest instead.
func (s *Store) Append(ctx context.Context, masks []IngestMask) ([]int64, error) {
	return nil, fmt.Errorf("store: append to read-only single-segment layout at %s: %w", s.dir, ErrReadOnly)
}

// extend publishes n additional masks appended (and fsynced) to
// masks.bin by compaction: ids up to base+numMasks+n become loadable.
// The caller must have made the new pixels durable first. Raw codec
// only; RLE segments extend through extendRLE.
func (s *Store) extend(n int) { s.numMasks.Add(int64(n)) }

// extendRLE publishes masks appended (and fsynced) to masks.rle by
// compaction: tail holds the end offset of each new stream, continuing
// from the current last offset. The new snapshot — the offset column
// extended, plus a fresh (unvalidated) row-directory chunk for the new
// ids; the existing chunks are shared, not copied — is published before
// the mask count so concurrent loads never see an id it does not cover.
func (s *Store) extendRLE(tail []int64) {
	old := s.rle.Load()
	offs := make([]int64, 0, len(old.offsets)+len(tail))
	offs = append(append(offs, old.offsets...), tail...)
	dirs := append(old.dirs[:len(old.dirs):len(old.dirs)], newRLEDirs(int64(len(old.offsets)-1), len(tail), s.h))
	s.rle.Store(&rleIndex{offsets: offs, dirs: dirs})
	s.numMasks.Add(int64(len(tail)))
}

// Close releases the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// SetCacheBytes installs a byte-budgeted LRU mask cache: LoadMask
// serves resident masks without disk traffic and an n-query batch
// over overlapping targets pays each distinct mask at most once.
// n == 0 removes the cache (the default: every LoadMask reads disk),
// n < 0 caches without bound. Masks served from the cache are shared
// between callers and must be treated as read-only. Reconfigure only
// while no loads are in flight (normally once, right after Open);
// masks already handed out by a previous cache stay valid and are
// garbage-collected instead of pooled.
func (s *Store) SetCacheBytes(n int64) {
	if n == 0 {
		s.cache = nil
		return
	}
	s.cache = newMaskCache(n, s.recycle)
}

// CacheBytes reports the configured cache budget (0: no cache, < 0:
// unbounded).
func (s *Store) CacheBytes() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.budget
}

// SetThrottle installs (or with the zero value removes) a simulated
// read-bandwidth limit.
func (s *Store) SetThrottle(t Throttle) {
	s.statsMu.Lock()
	s.thr = t
	s.thrFree = time.Time{}
	s.statsMu.Unlock()
}

// ResetStats zeroes the resettable read counters (LifetimeStats is
// unaffected).
func (s *Store) ResetStats() {
	s.statsMu.Lock()
	s.stats = ReadStats{}
	s.statsMu.Unlock()
}

// Stats returns the read counters accumulated since the last reset.
func (s *Store) Stats() ReadStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// LifetimeStats returns the read counters accumulated since Open,
// ignoring every ResetStats.
func (s *Store) LifetimeStats() ReadStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.lifetime
}

// account records a read and applies the throttle. Each read reserves
// a slot on the shared disk timeline under the lock and sleeps out its
// own wait outside it, so W concurrent readers still see BytesPerSec
// in aggregate rather than W times it.
func (s *Store) account(masks, regions, bytes int64) {
	s.statsMu.Lock()
	s.stats.MasksLoaded += masks
	s.stats.RegionReads += regions
	s.stats.BytesRead += bytes
	s.lifetime.MasksLoaded += masks
	s.lifetime.RegionReads += regions
	s.lifetime.BytesRead += bytes
	var wait time.Duration
	if s.thr.BytesPerSec > 0 && bytes > 0 {
		d := time.Duration(float64(bytes) / s.thr.BytesPerSec * float64(time.Second))
		now := time.Now()
		if s.thrFree.Before(now) {
			s.thrFree = now
		}
		s.thrFree = s.thrFree.Add(d)
		wait = s.thrFree.Sub(now)
	}
	s.statsMu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// accountCache records cache traffic (no throttle: hits never touch
// the simulated disk).
func (s *Store) accountCache(hits, misses, evicted int64) {
	s.statsMu.Lock()
	s.stats.CacheHits += hits
	s.stats.CacheMisses += misses
	s.stats.CacheEvicted += evicted
	s.lifetime.CacheHits += hits
	s.lifetime.CacheMisses += misses
	s.lifetime.CacheEvicted += evicted
	s.statsMu.Unlock()
}

func (s *Store) checkID(id int64) error {
	if n := s.numMasks.Load(); id <= s.base || id > s.base+n {
		return fmt.Errorf("store: mask id %d out of range [%d, %d]", id, s.base+1, s.base+n)
	}
	return nil
}

// LoadMask returns one full mask, reading it from disk into a pooled
// byte-backed buffer — or, with a cache configured (SetCacheBytes),
// serving the resident copy with no disk traffic. On an RLE store the
// mask comes back RLE-backed without decompression (the hot kernels
// compute on the compressed form), carrying its row directory, and
// only the compressed bytes are charged to the read stats and the
// cache budget; the stream is validated on the mask's first load since
// Open and trusted after that. Cached masks are
// shared between concurrent callers and must be treated as read-only;
// pass them back through ReleaseMask when done so the cache can evict.
func (s *Store) LoadMask(id int64) (*core.Mask, error) {
	if err := s.checkID(id); err != nil {
		return nil, err
	}
	cache := s.cache
	if cache != nil {
		if m := cache.acquire(id); m != nil {
			s.accountCache(1, 0, 0)
			return m, nil
		}
	}
	if s.codec == CodecRLE {
		return s.loadMaskCompressed(id, cache)
	}
	n := s.w * s.h
	m, _ := s.maskPool.Get().(*core.Mask)
	if m == nil {
		m = core.NewByteMask(s.w, s.h)
	}
	if _, err := s.f.ReadAt(m.Bytes, (id-s.base-1)*int64(n)); err != nil {
		s.maskPool.Put(m)
		return nil, fmt.Errorf("store: read mask %d: %w", id, err)
	}
	s.account(1, 0, int64(n))
	if cache != nil {
		var evicted int64
		m, evicted = cache.insert(id, m)
		s.accountCache(0, 1, evicted)
	}
	return m, nil
}

// rleIndex is what an RLE store's loads need beyond the file: where
// each stream lies, and which streams have already been validated
// together with their row directories. A snapshot is immutable in
// shape; only the slots of its directory chunks fill in as masks are
// first loaded.
type rleIndex struct {
	// offsets is the offset column: numMasks+1 entries, mask (base+i)'s
	// stream at [offsets[i-1], offsets[i]) in f.
	offsets []int64
	// dirs covers local mask indexes [0, numMasks) in ascending
	// contiguous chunks: one from Open plus one per extendRLE.
	dirs []*rleDirs
}

// rleDirs is the validate-once state of a contiguous run of masks: per
// mask a state word and the h row offsets core.IndexRLE records
// (4*(h+1) resident bytes per mask). The base files are immutable
// while the store is open — the trust the raw layout already places in
// masks.bin — so a stream that validated once is not walked again; its
// slot moves dirNone → dirBuilding → dirReady exactly once, and rows
// are read only after dirReady is observed.
type rleDirs struct {
	first int64 // local 0-based index of the first mask covered
	state []atomic.Uint32
	rows  []uint32
}

const (
	dirNone uint32 = iota
	dirBuilding
	dirReady
)

func newRLEDirs(first int64, n, h int) *rleDirs {
	return &rleDirs{first: first, state: make([]atomic.Uint32, n), rows: make([]uint32, n*h)}
}

// validate makes the freshly read stream of mask i (local 0-based
// index) safe for the unchecked kernels and attaches its row
// directory. The first load of i walks the stream once — validation and
// directory in the same pass — and publishes the directory; later loads
// only attach it. A load that finds another goroutine mid-publication
// validates its own copy and goes without a directory, which changes no
// result, only where the kernel starts walking.
func (x *rleIndex) validate(i int64, m *core.Mask) error {
	d := x.dirs[sort.Search(len(x.dirs), func(k int) bool { return x.dirs[k].first > i })-1]
	k := int(i - d.first)
	rows := d.rows[k*m.H : (k+1)*m.H : (k+1)*m.H]
	st := &d.state[k]
	if st.Load() != dirReady {
		if !st.CompareAndSwap(dirNone, dirBuilding) {
			return core.ValidateRLE(m.RLE, m.W, m.H)
		}
		if err := core.IndexRLE(m.RLE, m.W, m.H, rows); err != nil {
			st.Store(dirNone)
			return err
		}
		st.Store(dirReady)
	}
	m.RowDir = rows
	return nil
}

// loadMaskCompressed is the RLE-codec load path: it reads only the
// mask's compressed stream and returns it as an RLE-backed mask, never
// materializing pixels. With no cache the mask comes from rlePool; a
// mask bound for the cache is allocated at its exact size instead, so
// the cache's byte accounting stays the memory it really holds.
func (s *Store) loadMaskCompressed(id int64, cache *maskCache) (*core.Mask, error) {
	x := s.rle.Load()
	m, err := s.readRLE(x, id, cache == nil)
	if err != nil {
		return nil, err
	}
	if err := x.validate(id-s.base-1, m); err != nil {
		s.recycle(m)
		return nil, fmt.Errorf("store: mask %d: corrupt rle stream: %w", id, err)
	}
	s.account(1, 0, int64(len(m.RLE)))
	if cache != nil {
		var evicted int64
		m, evicted = cache.insert(id, m)
		s.accountCache(0, 1, evicted)
	}
	return m, nil
}

// readRLE reads mask id's compressed stream, unvalidated, into an
// RLE-backed mask: a pooled one when pooled is set, else one allocated
// at exactly the stream's size.
func (s *Store) readRLE(x *rleIndex, id int64, pooled bool) (*core.Mask, error) {
	i := id - s.base
	n := int(x.offsets[i] - x.offsets[i-1])
	var m *core.Mask
	if pooled {
		m, _ = s.rlePool.Get().(*core.Mask)
		if m == nil || cap(m.RLE) < n {
			m = &core.Mask{W: s.w, H: s.h, RLE: make([]byte, max(n, s.rleCap))}
		}
		m.RLE = m.RLE[:n]
	} else {
		m = &core.Mask{W: s.w, H: s.h, RLE: make([]byte, n)}
	}
	if _, err := s.f.ReadAt(m.RLE, x.offsets[i-1]); err != nil {
		s.recycle(m)
		return nil, fmt.Errorf("store: read mask %d: %w", id, err)
	}
	return m, nil
}

// ReleaseMask returns a mask obtained from LoadMask to the buffer
// pool — or, when the mask is cache-resident, unpins it so the cache
// may evict it later (the buffer reaches the pool on eviction). The
// engine calls it once verification is done with a mask; callers that
// hand masks to user code (or that are unsure of the mask's
// provenance) simply never call it — an unreleased mask is garbage-
// collected as before (a bounded cache detaches held entries under
// budget pressure rather than keeping them resident, so hoarded masks
// cost their own bytes but never the cache's). Masks of foreign
// dimensions are ignored.
func (s *Store) ReleaseMask(m *core.Mask) {
	if m == nil || m.W != s.w || m.H != s.h {
		return
	}
	if !s.releaseCached(m) {
		s.recycle(m)
	}
}

// sharePools points s at the buffer pools of o, a segment of the same
// mask dimensions: buffers are interchangeable across the shards of a
// ShardedStore, so a release on one shard can serve the next load on
// another.
func (s *Store) sharePools(o *Store) { s.maskPool, s.rlePool = o.maskPool, o.rlePool }

// recycle hands a mask no cache owns to the pool matching its backing:
// full-size byte buffers to maskPool, RLE-backed masks with the pooled
// capacity to rlePool. Anything else (float masks, exact-size streams
// the cache evicted, hand-built masks) is left to the GC.
func (s *Store) recycle(m *core.Mask) {
	switch {
	case m.Bytes != nil:
		if len(m.Bytes) == s.w*s.h {
			m.Pix = nil
			s.maskPool.Put(m)
		}
	case cap(m.RLE) >= s.rleCap:
		m.RowDir = nil
		s.rlePool.Put(m)
	}
}

// releaseCached unpins m when this store's cache owns it, reporting
// whether it did. A ShardedStore release probes each shard's cache
// through it before falling back to the shared pool.
func (s *Store) releaseCached(m *core.Mask) bool {
	cache := s.cache
	if cache == nil {
		return false
	}
	owned, evicted := cache.unpin(m)
	if owned {
		s.accountCache(0, 0, evicted)
	}
	return owned
}

// LoadRegion reads only the pixels of one mask inside r (clamped to
// the mask bounds), as a standalone byte-backed mask of the region's
// dimensions. This is the access path of the ArraySlice baseline:
// only the region's logical bytes are charged to the read stats. A
// region spanning the full mask width is contiguous on disk and is
// fetched with a single ReadAt; narrower regions read row by row,
// each row landing directly in the output buffer. On an RLE store the
// variable-length rows are not addressable without the stream, so the
// whole compressed mask is read (and charged) and decoded through a
// pooled scratch buffer — region reads lose the partial-read
// advantage under compression.
func (s *Store) LoadRegion(id int64, r core.Rect) (*core.Mask, error) {
	if err := s.checkID(id); err != nil {
		return nil, err
	}
	r = r.Intersect(core.Rect{X0: 0, Y0: 0, X1: s.w, Y1: s.h})
	if r.Empty() {
		s.account(0, 1, 0)
		return core.NewByteMask(0, 0), nil
	}
	if s.codec == CodecRLE {
		return s.loadRegionCompressed(id, r)
	}
	maskOff := (id - s.base - 1) * int64(s.w) * int64(s.h)
	rw := r.W()
	out := core.NewByteMask(rw, r.H())
	if rw == s.w {
		// Full-width region: one contiguous read replaces H row reads.
		off := maskOff + int64(r.Y0)*int64(s.w)
		if _, err := s.f.ReadAt(out.Bytes, off); err != nil {
			return nil, fmt.Errorf("store: read mask %d region %v: %w", id, r, err)
		}
		s.account(0, 1, int64(r.Area()))
		return out, nil
	}
	for y := r.Y0; y < r.Y1; y++ {
		off := maskOff + int64(y)*int64(s.w) + int64(r.X0)
		row := out.Bytes[(y-r.Y0)*rw : (y-r.Y0+1)*rw]
		if _, err := s.f.ReadAt(row, off); err != nil {
			return nil, fmt.Errorf("store: read mask %d region %v: %w", id, r, err)
		}
	}
	s.account(0, 1, int64(r.Area()))
	return out, nil
}

// loadRegionCompressed extracts a region from an RLE mask by decoding
// the full stream (through pooled stream and pixel buffers) and copying
// out the requested rows. DecodeRLE validates strictly as it goes, so
// the stream needs no separate walk. r is non-empty and clamped by the
// caller.
func (s *Store) loadRegionCompressed(id int64, r core.Rect) (*core.Mask, error) {
	src, err := s.readRLE(s.rle.Load(), id, true)
	if err != nil {
		return nil, err
	}
	defer s.recycle(src)
	tmp, _ := s.maskPool.Get().(*core.Mask)
	if tmp == nil {
		tmp = core.NewByteMask(s.w, s.h)
	}
	defer s.recycle(tmp)
	if err := core.DecodeRLE(src.RLE, s.w, s.h, tmp.Bytes); err != nil {
		return nil, fmt.Errorf("store: mask %d: corrupt rle stream: %w", id, err)
	}
	s.account(0, 1, int64(len(src.RLE)))
	rw := r.W()
	out := core.NewByteMask(rw, r.H())
	for y := r.Y0; y < r.Y1; y++ {
		copy(out.Bytes[(y-r.Y0)*rw:], tmp.Bytes[y*s.w+r.X0:y*s.w+r.X1])
	}
	return out, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeJSON writes v without durability guarantees; only the bulk
// generation path uses it (ingestion goes through writeJSONSync).
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	//msvet:ignore fsyncrename bulk generation is not crash-safe by contract; a partial dataset is regenerated
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
