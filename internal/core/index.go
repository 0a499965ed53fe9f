package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// MemoryIndex is a thread-safe in-memory CHI collection. It serves
// both the eager ("vanilla MaskSearch") mode, where every mask is
// indexed up front, and the incremental mode (§3.6), where Observe
// grows the index as queries verify masks.
//
// Mask ids are dense from 1, so the collection is a paged table rather
// than a map: a copy-on-write directory of fixed-size pages whose slots
// are atomic pointers. ChiFor — called once per mask per query by every
// engine worker — is two atomic loads, with no lock and no hashing;
// only growing the directory takes the mutex.
type MemoryIndex struct {
	// builder holds the config and its byte tables, made once per
	// index: Observe and IndexAll build every CHI through it.
	builder
	// dir is the page directory; page p holds ids
	// [p*chiPageSize+1, (p+1)*chiPageSize]. A published directory is
	// never modified: growth publishes a longer copy sharing the pages.
	dir atomic.Pointer[[]*chiPage]
	// grow serializes directory growth.
	grow sync.Mutex
	n    atomic.Int64
}

const (
	chiPageBits = 10
	chiPageSize = 1 << chiPageBits
	// maxIndexID bounds the directory (to 32 MiB of page pointers) so a
	// corrupt chi.gob cannot ask for an absurd allocation.
	maxIndexID = 1 << 32
)

type chiPage [chiPageSize]atomic.Pointer[CHI]

// NewMemoryIndex returns an empty index that builds CHIs with cfg,
// normalized. An invalid cfg makes every build fail.
func NewMemoryIndex(cfg Config) *MemoryIndex {
	ix := &MemoryIndex{builder: newBuilder(cfg)}
	ix.dir.Store(new([]*chiPage))
	return ix
}

// Config returns the build configuration of the index.
func (ix *MemoryIndex) Config() Config { return ix.cfg }

// slot returns id's table slot, or nil when id lies outside the pages
// allocated so far (ids < 1 included).
func (ix *MemoryIndex) slot(id int64) *atomic.Pointer[CHI] {
	dir := *ix.dir.Load()
	if p := uint64(id-1) >> chiPageBits; p < uint64(len(dir)) {
		return &dir[p][(id-1)&(chiPageSize-1)]
	}
	return nil
}

// ChiFor returns the CHI for id, or (nil, nil) when not indexed.
func (ix *MemoryIndex) ChiFor(id int64) (*CHI, error) {
	if s := ix.slot(id); s != nil {
		return s.Load(), nil
	}
	return nil, nil
}

// Add stores a prebuilt CHI for id, replacing any existing entry. Ids
// outside [1, 2^32] cannot name a mask and are ignored.
func (ix *MemoryIndex) Add(id int64, chi *CHI) {
	if id < 1 || id > maxIndexID || chi == nil {
		return
	}
	// Intern the edges: a CHI decoded from chi.gob owns a private copy
	// of the index's one normalized slice. Sharing it drops the copy and
	// makes a query plan's "same edges?" check a pointer compare.
	if e := ix.cfg.Edges; !sameSlice(chi.Edges, e) && slices.Equal(chi.Edges, e) {
		chi.Edges = e
	}
	s := ix.slot(id)
	if s == nil {
		ix.grow.Lock()
		dir := *ix.dir.Load()
		if pages := int((id-1)>>chiPageBits) + 1; pages > len(dir) {
			grown := make([]*chiPage, pages)
			for p := copy(grown, dir); p < pages; p++ {
				grown[p] = new(chiPage)
			}
			ix.dir.Store(&grown)
		}
		ix.grow.Unlock()
		s = ix.slot(id)
	}
	if s.Swap(chi) == nil {
		ix.n.Add(1)
	}
}

// Observe indexes a mask that a query just loaded, if it is not
// indexed yet. Its signature matches Env.OnVerify so the incremental
// mode is wired as OnVerify: idx.Observe. It never retains m: the CHI
// is fully built before it returns, so the engine may release the
// mask immediately afterwards.
//
// The check-then-build sequence is deliberately not atomic: two
// goroutines observing the same unindexed mask may both build its
// CHI and the last Add wins. That race is benign — both builds
// produce the identical index entry (a build is deterministic in m
// and cfg) — and a slow build never blocks concurrent ChiFor readers.
func (ix *MemoryIndex) Observe(id int64, m *Mask) {
	if chi, _ := ix.ChiFor(id); chi != nil {
		return
	}
	chi, err := ix.build(m)
	if err != nil {
		return
	}
	ix.Add(id, chi)
}

// Len returns the number of indexed masks.
func (ix *MemoryIndex) Len() int { return int(ix.n.Load()) }

// each calls f for every indexed mask in id order.
func (ix *MemoryIndex) each(f func(id int64, chi *CHI)) {
	for p, page := range *ix.dir.Load() {
		for i := range page {
			if chi := page[i].Load(); chi != nil {
				f(int64(p)<<chiPageBits+int64(i)+1, chi)
			}
		}
	}
}

// SizeBytes estimates the index footprint: every entry, the edges they
// share once, and the edges of any entry built under another config.
func (ix *MemoryIndex) SizeBytes() int64 {
	shared := ix.cfg.Edges
	n := int64(len(shared)) * 8
	ix.each(func(_ int64, c *CHI) {
		n += c.SizeBytes()
		if !sameSlice(c.Edges, shared) {
			n += int64(len(c.Edges)) * 8
		}
	})
	return n
}

// indexFile is the gob persistence envelope.
type indexFile struct {
	Cfg  Config
	Chis map[int64]*CHI
}

// Encode serializes the index so it can be reloaded with
// ReadMemoryIndex (the DB facade persists to <db>/chi.gob).
func (ix *MemoryIndex) Encode(w io.Writer) error {
	chis := make(map[int64]*CHI, ix.Len())
	ix.each(func(id int64, c *CHI) { chis[id] = c })
	return gob.NewEncoder(w).Encode(indexFile{Cfg: ix.cfg, Chis: chis})
}

// ReadMemoryIndex reloads an index serialized by Encode. It rejects a
// file whose config is not in normal form or that holds an entry its
// config could not have built (see CHI.validate): queries trust every
// entry's shape and counts, so a malformed one would panic a query or
// let wrong bounds decide its answer.
func ReadMemoryIndex(r io.Reader) (*MemoryIndex, error) {
	var f indexFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decode index: %w", err)
	}
	ix := NewMemoryIndex(f.Cfg)
	if ix.err != nil || !slices.Equal(ix.cfg.Edges, f.Cfg.Edges) {
		return nil, fmt.Errorf("core: decode index: config %s is not normalized", f.Cfg.Key())
	}
	for id, chi := range f.Chis {
		if id < 1 || id > maxIndexID {
			return nil, fmt.Errorf("core: decode index: mask id %d out of range", id)
		}
		if err := chi.validate(ix.cfg); err != nil {
			return nil, fmt.Errorf("core: decode index: mask %d: %w", id, err)
		}
		ix.Add(id, chi)
	}
	return ix, nil
}

// LoadIndex restores the index persisted at path when the file exists,
// is valid and was built under cfg; otherwise it returns an empty index
// for cfg, which grows as queries observe masks.
func LoadIndex(path string, cfg Config) *MemoryIndex {
	fresh := NewMemoryIndex(cfg)
	f, err := os.Open(path)
	if err != nil {
		return fresh
	}
	defer f.Close()
	ix, err := ReadMemoryIndex(f)
	if err != nil || ix.cfg.Key() != fresh.cfg.Key() {
		return fresh
	}
	return ix
}
