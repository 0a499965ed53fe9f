// Package store provides the on-disk mask database: a generator for
// synthetic datasets, the catalog of mask metadata, and a Store that
// reads masks while accounting every byte (for the paper's
// masks-loaded metrics) and optionally simulating a bandwidth-limited
// disk.
//
// Layout of a database directory:
//
//	manifest.json  — the generation Spec plus derived counts and codec
//	catalog.bin    — one fixed-width, checksummed Entry row per mask in
//	                 id order (catalogfile.go; a legacy catalog.json is
//	                 still read, and migrated by OpenIngest)
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

// IngestMask is one mask submitted to MaskStore.Append: its catalog
// metadata (the MaskID field is assigned by the store) plus its raw
// uint8 pixels, length MaskW*MaskH.
type IngestMask struct {
	Entry Entry
	Pix   []byte
}

// Store reads masks from a database directory. The pixel file is
// mapped read-only once at Open and LoadMask hands out views of that
// mapping: a core.Mask whose Bytes (or RLE) is a sub-slice of the file
// itself, so a load makes no system call and copies no pixel; only the
// small mask headers are recycled (ReleaseMask). A view stays valid
// until Close, and a write through one faults (PROT_READ) instead of
// corrupting a shared mask. All methods are safe for concurrent use;
// the parallel engine loads from many goroutines.
type Store struct {
	dir  string
	f    *os.File
	w, h int
	// codec is the pixel encoding of f (CodecRaw or CodecRLE).
	codec string
	// genVersion is Manifest.GenVersion, 0 for ingested/legacy data.
	genVersion int
	// base offsets mask ids for sharded segments: the store serves ids
	// (base, base+numMasks], and id i lives at offset (i-base-1)*W*H.
	// 0 for ordinary unsharded stores.
	base int64
	// seg is the snapshot loads work from; compaction (extend) swaps it.
	seg atomic.Pointer[segment]

	// cache, when non-nil, tracks which mask ids count as resident so
	// overlapping queries stop being charged (and, under a Throttle,
	// stop waiting) for shared masks. Set via SetCacheBytes.
	cache *maskCache

	// life counts read traffic since Open with atomic adds, no lock.
	// Stats reports life minus statsBase, ResetStats' snapshot of it.
	life      readCounters
	statsBase ReadStats

	// statsMu guards statsBase and the simulated disk below; loads take
	// it only while a Throttle is installed.
	statsMu   sync.Mutex
	throttled atomic.Bool
	thr       Throttle
	// thrFree is the simulated disk's next-available time: concurrent
	// readers reserve back-to-back slots on one timeline so the
	// aggregate bandwidth stays at BytesPerSec no matter how many
	// engine workers read at once.
	thrFree time.Time
}

// segment is one immutable snapshot of the pixel file as loads see it.
// A load works from one snapshot alone, so it never sees an id whose
// bytes or offsets are not covered; growth publishes a longer copy
// sharing the chunks, which stay mapped — a view taken before a
// compaction is still valid after it.
type segment struct {
	numMasks int64
	// chunks are the mapped ranges of the file, ascending and contiguous:
	// one from Open plus one per compaction, split at mask boundaries.
	chunks []mapChunk
	// offsets is the RLE offset column: numMasks+1 entries, local mask
	// i's stream at [offsets[i-1], offsets[i]).
	offsets []int64
}

// mapChunk is one mapped range of the pixel file, data[0] at file
// offset off; dirs (RLE) is the validate-once state of its masks.
type mapChunk struct {
	off   int64
	data  []byte
	unmap func()
	dirs  *rleDirs
}

// at returns the n file bytes at offset off as a capacity-clipped slice
// of the chunk holding them, and that chunk.
func (g *segment) at(off int64, n int) ([]byte, *mapChunk) {
	lo, hi := 0, len(g.chunks)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; g.chunks[mid].off <= off {
			lo = mid
		} else {
			hi = mid
		}
	}
	c := &g.chunks[lo]
	i := int(off - c.off)
	return c.data[i : i+n : i+n], c
}

// readCounters is ReadStats (without the WAL layer's TailLoads) as
// lock-free counters. The two every load bumps are striped over
// cache-line-sized slots keyed by mask id, so workers loading different
// masks rarely add to the same line; snapshot sums the stripes.
type readCounters struct {
	loads [8]struct {
		masksLoaded, bytesRead atomic.Int64
		_                      [48]byte
	}
	regionReads, regionBytes             atomic.Int64
	cacheHits, cacheMisses, cacheEvicted atomic.Int64
}

func (c *readCounters) snapshot() ReadStats {
	st := ReadStats{
		RegionReads:  c.regionReads.Load(),
		BytesRead:    c.regionBytes.Load(),
		CacheHits:    c.cacheHits.Load(),
		CacheMisses:  c.cacheMisses.Load(),
		CacheEvicted: c.cacheEvicted.Load(),
	}
	for i := range c.loads {
		st.MasksLoaded += c.loads[i].masksLoaded.Load()
		st.BytesRead += c.loads[i].bytesRead.Load()
	}
	return st
}

// headers recycles mask headers between LoadMask and ReleaseMask. A
// header owns no pixels — it views a mapping or a WAL tail copy — so
// one pool serves every store.
var headers = sync.Pool{New: func() any { return new(core.Mask) }}

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
	// The catalog must agree with the manifest exactly: a longer
	// catalog would advertise ids whose pixels don't exist, a shorter
	// one would lose metadata for stored masks. Recovery trims an
	// over-long catalog left by a crashed compaction before reopening.
	entries, err := readCatalog(dir, man.NumMasks, max(1, man.FirstID))
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
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
	}
	// Fail fast on a truncated or corrupted mask file: a mapping longer
	// than the file would fault mid-query on whatever mask falls past
	// its end.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	g := &segment{numMasks: int64(man.NumMasks)}
	if man.Codec == CodecRLE {
		g.offsets, err = readOffsets(filepath.Join(dir, masksRLEIndexFile), man.NumMasks)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		if want := g.offsets[man.NumMasks]; fi.Size() != want {
			f.Close()
			return nil, nil, fmt.Errorf("store: open %s: masks.rle is %d bytes, offset column says %d — truncated or corrupted dataset",
				dir, fi.Size(), want)
		}
	} else if want := int64(man.NumMasks) * int64(spec.W) * int64(spec.H); fi.Size() != want {
		f.Close()
		return nil, nil, fmt.Errorf("store: open %s: masks.bin is %d bytes, want exactly %d (%d masks of %dx%d) — truncated or corrupted dataset",
			dir, fi.Size(), want, man.NumMasks, spec.W, spec.H)
	}
	if fi.Size() > 0 {
		c, err := s.mapRange(0, fi.Size(), 0, man.NumMasks)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		g.chunks = []mapChunk{c}
	}
	s.seg.Store(g)
	return s, NewCatalog(entries), nil
}

// mapRange maps bytes [from, to) of the pixel file, which hold the n
// masks from local index first on, as one chunk.
func (s *Store) mapRange(from, to, first int64, n int) (mapChunk, error) {
	data, unmap, err := mapFile(s.f, from, to-from)
	if err != nil {
		return mapChunk{}, fmt.Errorf("store: map %s [%d, %d): %w", s.f.Name(), from, to, err)
	}
	c := mapChunk{off: from, data: data, unmap: unmap}
	if s.codec == CodecRLE {
		c.dirs = &rleDirs{first: first, state: make([]atomic.Uint32, n), rows: make([]uint32, n*s.h)}
	}
	return c, nil
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
func (s *Store) NumMasks() int { return int(s.seg.Load().numMasks) }

// MaskW and MaskH return the common mask dimensions.
func (s *Store) MaskW() int { return s.w }
func (s *Store) MaskH() int { return s.h }

// DataBytes returns the total logical pixel bytes (NumMasks * W * H),
// independent of the codec.
func (s *Store) DataBytes() int64 { return s.seg.Load().numMasks * int64(s.w) * int64(s.h) }

// Codec returns the on-disk pixel encoding.
func (s *Store) Codec() string { return s.codec }

// GenVersion reports the generator version from the manifest (0 for
// ingested/legacy data).
func (s *Store) GenVersion() int { return s.genVersion }

// StoredBytes returns the on-disk size of the mask data.
func (s *Store) StoredBytes() int64 {
	if g := s.seg.Load(); s.codec == CodecRLE {
		return g.offsets[g.numMasks]
	}
	return s.DataBytes()
}

// Append returns ErrReadOnly: a bare segment has no WAL to make an
// append durable. Open the database through OpenIngest instead.
func (s *Store) Append(ctx context.Context, masks []IngestMask) ([]int64, error) {
	return nil, fmt.Errorf("store: append to read-only single-segment layout at %s: %w", s.dir, ErrReadOnly)
}

// extend publishes n masks that compaction appended (and fsynced) to
// the pixel file and mapped as c (mapRange): ids up to base+numMasks+n
// become loadable. Under RLE, tail holds the end offset of each new
// stream, continuing from the current last offset.
func (s *Store) extend(n int, tail []int64, c mapChunk) {
	old := s.seg.Load()
	g := &segment{
		numMasks: old.numMasks + int64(n),
		chunks:   append(old.chunks[:len(old.chunks):len(old.chunks)], c),
	}
	if s.codec == CodecRLE {
		g.offsets = append(append(make([]int64, 0, len(old.offsets)+n), old.offsets...), tail...)
	}
	s.seg.Store(g)
}

// Close closes the pixel file and unmaps it, which ends the life of
// every view LoadMask handed out; call it once.
func (s *Store) Close() error {
	for _, c := range s.seg.Load().chunks {
		c.unmap()
	}
	return s.f.Close()
}

// SetCacheBytes installs a byte-budgeted LRU mask cache: LoadMask
// serves a resident mask without charging MasksLoaded/BytesRead — and,
// under a Throttle, without the simulated-disk wait — so an n-query
// batch over overlapping targets pays each distinct mask at most once.
// The cache tracks mask ids, not masks: every load still hands out its
// own header, and the budget counts the bytes the resident ids' stored
// spans hold. n == 0 removes the cache (the default), n < 0 caches
// without bound. Reconfigure only while no loads are in flight
// (normally once, right after Open).
func (s *Store) SetCacheBytes(n int64) {
	s.cache = nil
	if n != 0 {
		s.cache = &maskCache{budget: n}
	}
}

// CacheBytes reports the configured cache budget (0: no cache, < 0:
// unbounded).
func (s *Store) CacheBytes() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.limit()
}

// SetThrottle installs (or with the zero value removes) a simulated
// read-bandwidth limit.
func (s *Store) SetThrottle(t Throttle) {
	s.statsMu.Lock()
	s.thr = t
	s.thrFree = time.Time{}
	s.throttled.Store(t.BytesPerSec > 0)
	s.statsMu.Unlock()
}

// ResetStats zeroes the resettable read counters (LifetimeStats is
// unaffected).
func (s *Store) ResetStats() {
	s.statsMu.Lock()
	s.statsBase = s.life.snapshot()
	s.statsMu.Unlock()
}

// Stats returns the read counters accumulated since the last reset.
func (s *Store) Stats() ReadStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.life.snapshot().Sub(s.statsBase)
}

// LifetimeStats returns the read counters accumulated since Open,
// ignoring every ResetStats.
func (s *Store) LifetimeStats() ReadStats { return s.life.snapshot() }

// account records one read of bytes logical bytes in kind and total (a
// load stripe's counters, or regionReads and regionBytes) and applies
// the throttle when one is installed. Each throttled read reserves a
// slot on the shared disk timeline under statsMu and sleeps out its own
// wait outside it, so W concurrent readers still see BytesPerSec in
// aggregate rather than W times it.
func (s *Store) account(kind, total *atomic.Int64, bytes int64) {
	kind.Add(1)
	total.Add(bytes)
	if bytes <= 0 || !s.throttled.Load() {
		return
	}
	s.statsMu.Lock()
	var wait time.Duration
	if s.thr.BytesPerSec > 0 {
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

// stored returns what the file holds for mask id — its raw pixels or,
// on an RLE store, its unvalidated stream — as a view of the mapping,
// together with the chunk the view lies in.
func (s *Store) stored(id int64) ([]byte, *mapChunk, error) {
	g, i := s.seg.Load(), id-s.base
	if i < 1 || i > g.numMasks {
		return nil, nil, fmt.Errorf("store: mask id %d out of range [%d, %d]", id, s.base+1, s.base+g.numMasks)
	}
	off, n := (i-1)*int64(s.w*s.h), s.w*s.h
	if s.codec == CodecRLE {
		off, n = g.offsets[i-1], int(g.offsets[i]-g.offsets[i-1])
	}
	b, c := g.at(off, n)
	return b, c, nil
}

// LoadMask returns one full mask as a view of the mapped pixel file: a
// pooled header whose Bytes is a capacity-clipped sub-slice of the
// mapping — no system call, no copy. On an RLE store the mask comes
// back RLE-backed without decompression, carrying its row directory;
// the stream is validated on the mask's first load since Open and
// trusted after that. With a cache configured (SetCacheBytes) a load of
// a resident id counts as a hit and is not charged to the read stats;
// a miss is charged and makes the id resident. Only the stored bytes —
// compressed, under RLE — are charged to the read stats and the cache
// budget. Every mask is read-only and valid until Close; pass it back
// through ReleaseMask when done so its header is reused.
func (s *Store) LoadMask(id int64) (*core.Mask, error) {
	b, c, err := s.stored(id)
	if err != nil {
		return nil, err
	}
	m := headers.Get().(*core.Mask)
	m.W, m.H = s.w, s.h
	if s.codec == CodecRLE {
		m.RLE = b
		if err := c.dirs.validate(id-s.base-1, m); err != nil {
			recycle(m)
			return nil, fmt.Errorf("store: mask %d: corrupt rle stream: %w", id, err)
		}
	} else {
		m.Bytes = b
	}
	if cache := s.cache; cache != nil {
		hit, evicted := cache.touch(id-s.base-1, len(b))
		if hit {
			s.life.cacheHits.Add(1)
			return m, nil
		}
		s.life.cacheMisses.Add(1)
		s.life.cacheEvicted.Add(evicted)
	}
	stripe := &s.life.loads[id&7]
	s.account(&stripe.masksLoaded, &stripe.bytesRead, int64(len(b)))
	return m, nil
}

// rleDirs is the validate-once state of the masks in one chunk of an
// RLE store: per mask a state word and the h row offsets core.IndexRLE
// records (4*(h+1) resident bytes per mask). The base files are
// immutable while the store is open — the trust the raw layout already
// places in masks.bin — so a stream that validated once is not walked
// again; its slot moves dirNone → dirBuilding → dirReady exactly once,
// and rows are read only after dirReady is observed.
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

// validate makes the stream view of mask i (local 0-based index) safe
// for the unchecked kernels and attaches its row directory. The first
// load of i walks the stream once — validation and directory in the
// same pass — and publishes the directory; later loads only attach it.
// A load that finds another goroutine mid-publication validates the
// stream itself and goes without a directory, which changes no result,
// only where the kernel starts walking.
func (d *rleDirs) validate(i int64, m *core.Mask) error {
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

// ReleaseMask gives back a mask obtained from LoadMask: its header
// returns to the header pool for the next load. The caller must not use
// the mask afterwards. A mask that is never released is simply
// garbage-collected. Masks of foreign dimensions are ignored.
func (s *Store) ReleaseMask(m *core.Mask) {
	if m != nil && m.W == s.w && m.H == s.h {
		recycle(m)
	}
}

// recycle returns a header to the header pool, cleared so an idle
// header keeps no WAL tail copy alive.
func recycle(m *core.Mask) {
	*m = core.Mask{}
	headers.Put(m)
}

// decodeScratch holds the full-mask pixel buffers LoadRegion decodes
// RLE streams into before copying the requested rows out.
var decodeScratch sync.Pool

// LoadRegion returns only the pixels of one mask inside r (clamped to
// the mask bounds), copied out of the mapping into a standalone
// byte-backed mask the caller owns. This is the access path of the
// ArraySlice baseline: only the region's logical bytes are charged to
// the read stats. On an RLE store the variable-length rows are not
// addressable without the stream, so the whole compressed mask is
// charged and decoded through a scratch buffer (DecodeRLE validates
// strictly as it goes) — region reads lose the partial-read advantage
// under compression.
func (s *Store) LoadRegion(id int64, r core.Rect) (*core.Mask, error) {
	pix, _, err := s.stored(id)
	if err != nil {
		return nil, err
	}
	r = r.Intersect(core.Rect{X0: 0, Y0: 0, X1: s.w, Y1: s.h})
	if r.Empty() {
		s.account(&s.life.regionReads, &s.life.regionBytes, 0)
		return core.NewByteMask(0, 0), nil
	}
	charge := r.Area()
	if s.codec == CodecRLE {
		tmp, _ := decodeScratch.Get().(*[]byte)
		if tmp == nil || len(*tmp) != s.w*s.h {
			b := make([]byte, s.w*s.h)
			tmp = &b
		}
		defer decodeScratch.Put(tmp)
		if err := core.DecodeRLE(pix, s.w, s.h, *tmp); err != nil {
			return nil, fmt.Errorf("store: mask %d: corrupt rle stream: %w", id, err)
		}
		charge, pix = len(pix), *tmp
	}
	s.account(&s.life.regionReads, &s.life.regionBytes, int64(charge))
	out := core.NewByteMask(r.W(), r.H())
	copyRegion(out.Bytes, pix, s.w, r)
	return out, nil
}

// copyRegion copies the rows of r out of pix, a full mask of width w,
// into dst (r.W()*r.H() bytes). A full-width region is one copy.
func copyRegion(dst, pix []byte, w int, r core.Rect) {
	if r.W() == w {
		copy(dst, pix[r.Y0*w:r.Y1*w])
		return
	}
	for y, rw := r.Y0, r.W(); y < r.Y1; y++ {
		copy(dst[(y-r.Y0)*rw:(y-r.Y0+1)*rw], pix[y*w+r.X0:])
	}
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
	return writeBulk(path, append(b, '\n'))
}

// writeBulk writes a file of the bulk generation path, without
// durability guarantees (ingestion goes through writeFileSync).
func writeBulk(path string, data []byte) error {
	//msvet:ignore fsyncrename bulk generation is not crash-safe by contract; a partial dataset is regenerated
	return os.WriteFile(path, data, 0o644)
}
