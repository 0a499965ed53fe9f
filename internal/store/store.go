// Package store provides the on-disk mask database: a generator for
// synthetic datasets, the catalog of mask metadata, and a Store that
// reads masks while counting every load and byte (the paper's
// masks-loaded metrics).
//
// A database is an ordered list of immutable segments. Each segment is
// a directory holding a contiguous run of mask ids:
//
//	catalog.bin    — one fixed-width, checksummed Entry row per mask in
//	                 id order (catalogfile.go; a segment without it, as
//	                 earlier versions wrote, fails the open)
//	masks.bin      — raw uint8 pixels, the segment's k-th mask at
//	                 offset k*W*H
//
// With the RLE codec (Manifest.Codec == CodecRLE) the pixel file is
// replaced by:
//
//	masks.rle      — per-mask core.EncodeRLE streams, concatenated
//	masks.rle.idx  — offset column: N+1 little-endian uint64 values,
//	                 the k-th stream at [off[k], off[k+1])
//
// manifest.json at the top of the database directory is the commit
// point: the generation Spec, the mask count, the codec and the
// segment list (Manifest.Shards). A manifest without a segment list
// describes one segment, the top-level directory itself. Generate
// writes that single-segment layout for one shard and shard-000/ …
// for more; every compaction adds one segment directory.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"masksearch/internal/core"
)

// ReadStats counts storage traffic since the store was opened. The
// counters only grow; callers bracket work with two snapshots and Sub.
type ReadStats struct {
	// MasksLoaded counts whole-mask loads charged to the store, each a
	// view of the mapped pixel file (a cache hit serves the mask
	// without touching this counter).
	MasksLoaded int64
	// BytesRead counts the stored pixel bytes the charged loads covered.
	BytesRead int64
	// CacheHits counts LoadMask calls served from the mask cache
	// without a charge. Zero when no cache is configured.
	CacheHits int64
	// CacheMisses counts LoadMask calls charged while a cache was
	// configured (every miss is also a MasksLoaded).
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
// two snapshots and report the difference.
func (s ReadStats) Sub(prev ReadStats) ReadStats {
	return ReadStats{
		MasksLoaded:  s.MasksLoaded - prev.MasksLoaded,
		BytesRead:    s.BytesRead - prev.BytesRead,
		CacheHits:    s.CacheHits - prev.CacheHits,
		CacheMisses:  s.CacheMisses - prev.CacheMisses,
		CacheEvicted: s.CacheEvicted - prev.CacheEvicted,
		TailLoads:    s.TailLoads - prev.TailLoads,
	}
}

// Add accumulates o into s, field by field.
func (s *ReadStats) Add(o ReadStats) {
	s.MasksLoaded += o.MasksLoaded
	s.BytesRead += o.BytesRead
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvicted += o.CacheEvicted
	s.TailLoads += o.TailLoads
}

// ShardInfo locates one segment of a database inside the top-level
// manifest.
type ShardInfo struct {
	// Dir is the segment directory name, relative to the database dir
	// ("." for the top-level directory itself).
	Dir string `json:"dir"`
	// FirstID is the first (global) mask id stored in the segment; it
	// holds the contiguous range [FirstID, FirstID+NumMasks).
	FirstID int64 `json:"first_id"`
	// NumMasks is the segment's mask count.
	NumMasks int `json:"num_masks"`
}

// Manifest describes a database (or, in a segment directory the
// generator wrote, that one segment).
type Manifest struct {
	Spec     Spec `json:"spec"`
	NumMasks int  `json:"num_masks"`
	// FirstID is the first mask id of a segment directory's own
	// manifest. Open reads extents from the top-level segment list
	// alone.
	FirstID int64 `json:"first_id,omitempty"`
	// Shards is the ordered segment list: contiguous, ascending id
	// ranges covering [1, NumMasks]. Empty means one segment, the
	// top-level directory (see segments).
	Shards []ShardInfo `json:"shards,omitempty"`
	// Codec names the pixel encoding of the mask files (CodecRaw or
	// CodecRLE), shared by every segment.
	Codec string `json:"codec,omitempty"`
	// GenVersion records the generator version that produced a
	// synthetic dataset, so harnesses regenerate when the generator's
	// output changed for the same Spec. 0 on ingested/legacy data.
	GenVersion int `json:"gen_version,omitempty"`
}

// segments returns the manifest's segment list; a manifest without one
// describes a single segment at the top level.
func (man Manifest) segments() []ShardInfo {
	if len(man.Shards) > 0 {
		return man.Shards
	}
	return []ShardInfo{{Dir: ".", FirstID: 1, NumMasks: man.NumMasks}}
}

// MaskStore is the read surface shared by the Store and the WALStore
// that wraps it: loading masks, counting that traffic and sizing the
// cache. Appends go through the WALStore itself.
type MaskStore interface {
	LoadMask(id int64) (*core.Mask, error)
	ReleaseMask(m *core.Mask)
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
	Stats() ReadStats
}

// IngestMask is one mask submitted to the WALStore's Append: its
// catalog metadata (the MaskID field is assigned by the store) plus its
// raw uint8 pixels, length MaskW*MaskH.
type IngestMask struct {
	Entry Entry
	Pix   []byte
}

// Store reads masks from a database directory: an ordered list of
// immutable segments, each mapped read-only once at open. LoadMask
// routes an id to its segment and hands out a view of that mapping — a
// core.Mask whose Bytes (or RLE) is a sub-slice of the file itself, so
// a load makes no system call and copies no pixel; only the small mask
// headers are recycled (ReleaseMask). A view stays valid until Close,
// and a write through one faults (PROT_READ) instead of corrupting a
// shared mask.
//
// Each segment keeps its own LRU cache arena and lock-free read
// counters, so loads of different segments never share a lock; Stats
// sums them (ShardStats exposes the split). The segment list is an
// immutable snapshot behind an atomic pointer, so routing a load takes
// no lock; WAL compaction publishes each compacted batch as one more
// segment (addSegment), and mu serializes the writers that replace the
// list or reconfigure every segment. All methods are safe for concurrent use.
type Store struct {
	dir   string
	w, h  int
	codec string
	// genVersion is Manifest.GenVersion, 0 for ingested/legacy data.
	genVersion int

	set atomic.Pointer[segSet]

	mu sync.Mutex
	// cacheBytes remembers the configured total budget, split across
	// the segment arenas by cacheShare.
	cacheBytes int64
}

// segSet is one immutable snapshot of the segment list.
type segSet struct {
	segs     []*segment
	firstIDs []int64 // ascending; segs[i] serves [firstIDs[i], firstIDs[i]+segs[i].n)
	numMasks int
}

// with returns a copy of set extended by g.
func (set *segSet) with(g *segment) *segSet {
	return &segSet{
		segs:     append(set.segs[:len(set.segs):len(set.segs)], g),
		firstIDs: append(set.firstIDs[:len(set.firstIDs):len(set.firstIDs)], g.first),
		numMasks: set.numMasks + g.n,
	}
}

// shardOf returns the index of the segment owning id: the last one
// starting at or below it.
func (set *segSet) shardOf(id int64) int {
	i := sort.Search(len(set.firstIDs), func(i int) bool { return set.firstIDs[i] > id }) - 1
	return max(0, i)
}

// maxMaskSide bounds the mask dimensions Open accepts, so a damaged
// manifest cannot size a mask past what the WAL header (int32) or an
// int64 byte count can carry.
const maxMaskSide = 1 << 16

// Open opens the database directory dir — every segment its manifest
// lists, or the top-level directory as the one segment of a manifest
// without a list — and returns the store together with the full
// catalog. Each segment's catalog must agree with its listed extent
// exactly and its pixel file must hold exactly the bytes those masks
// need.
func Open(dir string) (*Store, *Catalog, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if !validCodec(man.Codec) {
		return nil, nil, fmt.Errorf("store: open %s: unknown codec %q", dir, man.Codec)
	}
	spec := man.Spec.withDefaults()
	if spec.W < 1 || spec.H < 1 || spec.W > maxMaskSide || spec.H > maxMaskSide {
		return nil, nil, fmt.Errorf("store: open %s: mask size %dx%d out of range", dir, spec.W, spec.H)
	}
	s := &Store{dir: dir, w: spec.W, h: spec.H, codec: man.Codec, genVersion: man.GenVersion}
	set := &segSet{}
	var entries []Entry
	for _, info := range man.segments() {
		if want := int64(set.numMasks) + 1; info.FirstID != want || info.NumMasks < 0 {
			closeSegments(set)
			return nil, nil, fmt.Errorf("store: open %s: segment %s maps %d masks from id %d, want a count >= 0 from id %d — regenerate the dataset",
				dir, info.Dir, info.NumMasks, info.FirstID, want)
		}
		segDir := filepath.Join(dir, info.Dir)
		rows, err := readCatalog(segDir, info.NumMasks, info.FirstID)
		if err != nil {
			closeSegments(set)
			return nil, nil, fmt.Errorf("store: open %s: segment %s: %w", dir, info.Dir, err)
		}
		g, err := s.openSegment(segDir, info)
		if err != nil {
			closeSegments(set)
			return nil, nil, fmt.Errorf("store: open %s: segment %s: %w", dir, info.Dir, err)
		}
		set = set.with(g)
		if entries == nil {
			entries = rows // the common single segment: no copy
		} else {
			entries = append(entries, rows...)
		}
	}
	if set.numMasks != man.NumMasks {
		closeSegments(set)
		return nil, nil, fmt.Errorf("store: open %s: segments hold %d masks, manifest says %d", dir, set.numMasks, man.NumMasks)
	}
	s.set.Store(set)
	return s, NewCatalog(entries), nil
}

// OpenAny is Open. It stays because benchmark/distscatter.go:63 calls
// it.
func OpenAny(dir string) (*Store, *Catalog, error) { return Open(dir) }

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

// closeSegments unmaps every segment of set.
func closeSegments(set *segSet) {
	for _, g := range set.segs {
		g.close()
	}
}

// Dir returns the database directory.
func (s *Store) Dir() string { return s.dir }

// NumShards returns the number of segments.
func (s *Store) NumShards() int { return len(s.set.Load().segs) }

// NumMasks returns the number of stored masks.
func (s *Store) NumMasks() int { return s.set.Load().numMasks }

// MaskW and MaskH return the common mask dimensions.
func (s *Store) MaskW() int { return s.w }
func (s *Store) MaskH() int { return s.h }

// DataBytes returns the total logical pixel bytes (NumMasks * W * H),
// independent of the codec.
func (s *Store) DataBytes() int64 { return int64(s.NumMasks()) * int64(s.w) * int64(s.h) }

// Codec returns the on-disk pixel encoding shared by every segment.
func (s *Store) Codec() string { return s.codec }

// GenVersion reports the generator version from the manifest (0 for
// ingested/legacy data).
func (s *Store) GenVersion() int { return s.genVersion }

// StoredBytes returns the on-disk size of the mask data.
func (s *Store) StoredBytes() int64 {
	if s.codec != CodecRLE {
		return s.DataBytes()
	}
	var n int64
	for _, g := range s.set.Load().segs {
		n += g.offsets[g.n]
	}
	return n
}

// Close unmaps every segment, which ends the life of every view
// LoadMask handed out; call it once.
func (s *Store) Close() error {
	closeSegments(s.set.Load())
	return nil
}

// addSegment publishes a segment compaction just committed; it must
// continue the id space exactly. The configured cache budget is
// re-split over all segments: existing arenas shrink in place (evicting
// cold ids, counted as CacheEvicted) while loads keep running, and the
// new segment gets an arena of its share before it is published.
func (s *Store) addSegment(g *segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.set.Load()
	if n := s.cacheBytes; n != 0 {
		total := len(set.segs) + 1
		for i, old := range set.segs {
			old.life.cacheEvicted.Add(old.cache.setBudget(cacheShare(n, i, total)))
		}
		g.cache = &maskCache{budget: cacheShare(n, total-1, total)}
	}
	s.set.Store(set.with(g))
}

// ShardOf returns the index of the segment owning id. Out-of-range ids
// map to the nearest segment.
func (s *Store) ShardOf(id int64) int { return s.set.Load().shardOf(id) }

// stored returns what the files hold for mask id — its raw pixels or,
// on an RLE store, its unvalidated stream — as a capacity-clipped view
// of its segment's mapping, together with that segment.
func (s *Store) stored(id int64) ([]byte, *segment, error) {
	set := s.set.Load()
	if id < 1 || id > int64(set.numMasks) {
		return nil, nil, fmt.Errorf("store: mask id %d out of range [1, %d]", id, set.numMasks)
	}
	g := set.segs[set.shardOf(id)]
	k := id - g.first
	off, end := k*int64(s.w*s.h), (k+1)*int64(s.w*s.h)
	if s.codec == CodecRLE {
		off, end = g.offsets[k], g.offsets[k+1]
	}
	return g.data[off:end:end], g, nil
}

// LoadMask returns one full mask as a view of its segment's mapping: a
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
	b, g, err := s.stored(id)
	if err != nil {
		return nil, err
	}
	k := id - g.first
	m := headers.Get().(*core.Mask)
	m.W, m.H = s.w, s.h
	if s.codec == CodecRLE {
		m.RLE = b
		if err := g.dirs.validate(k, m); err != nil {
			recycle(m)
			return nil, fmt.Errorf("store: mask %d: corrupt rle stream: %w", id, err)
		}
	} else {
		m.Bytes = b
	}
	if cache := g.cache; cache != nil {
		hit, evicted := cache.touch(k, len(b))
		if hit {
			g.life.cacheHits.Add(1)
			return m, nil
		}
		g.life.cacheMisses.Add(1)
		g.life.cacheEvicted.Add(evicted)
	}
	stripe := &g.life.loads[id&7]
	stripe.masksLoaded.Add(1)
	stripe.bytesRead.Add(int64(len(b)))
	return m, nil
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

// SetCacheBytes installs byte-budgeted LRU mask cache arenas, one per
// segment: LoadMask serves a resident mask without charging
// MasksLoaded/BytesRead — so an n-query batch over overlapping targets
// pays each distinct mask at most once. The cache tracks mask ids, not
// masks: every load still hands out its own header, and the budget
// counts the bytes the resident ids' stored spans hold. A total n != 0
// gives every segment an arena — a positive n is split by cacheShare,
// so a share of 0 is an arena that keeps nothing resident (every load
// still counts as a miss), and n < 0 makes each arena unbounded; n == 0
// removes every arena (the default). Reconfigure only while no loads
// are in flight (normally once, right after Open).
func (s *Store) SetCacheBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheBytes = n
	segs := s.set.Load().segs
	for i, g := range segs {
		g.cache = nil
		if n != 0 {
			g.cache = &maskCache{budget: cacheShare(n, i, len(segs))}
		}
	}
}

// cacheShare is segment i's arena budget out of a total n over s
// segments: an even split whose remainder goes to the first n%s
// segments, or n itself when n < 0 (unbounded).
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

// CacheBytes reports the configured total cache budget (0: no cache,
// < 0: unbounded).
func (s *Store) CacheBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheBytes
}

// Stats returns the read counters accumulated since Open, summed over
// segments (the exact sum of ShardStats).
func (s *Store) Stats() ReadStats {
	var out ReadStats
	for _, g := range s.set.Load().segs {
		out.Add(g.life.snapshot())
	}
	return out
}

// ShardStats returns each segment's read counters since Open, indexed
// like ShardOf. Summing them reproduces Stats exactly.
func (s *Store) ShardStats() []ReadStats {
	segs := s.set.Load().segs
	out := make([]ReadStats, len(segs))
	for i, g := range segs {
		out[i] = g.life.snapshot()
	}
	return out
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
