package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// MemoryIndex is a thread-safe in-memory CHI collection. It serves
// both the eager ("vanilla MaskSearch") mode, where every mask is
// indexed up front, and the incremental mode (§3.6), where Observe
// grows the index as queries verify masks.
//
// The index is an arena of one geometry — its config over one W×H,
// fixed by the first entry — so every entry has the same number of
// counts, its stride. Mask ids are dense from 1: a page holds 1 024
// ids' counts in one slab at that stride, beside CHI headers viewing
// their slots, and no entry has a heap object of its own. A slot is
// write-once: a writer claims it, builds into it and publishes it with
// an atomic bit. ChiFor — called once per mask per query by every
// engine worker — is two atomic loads, with no lock and no hashing.
type MemoryIndex struct {
	// builder holds the config and its byte tables, made once per
	// index: Observe and IndexAll build every entry through it.
	builder
	geom atomic.Pointer[chiGeom] // nil until the first entry
	// dir is the page directory; page p holds ids
	// [p*chiPageSize+1, (p+1)*chiPageSize], nil until one is claimed. A
	// published directory is never modified: adding a page publishes a
	// copy sharing the others.
	dir  atomic.Pointer[[]*chiPage]
	grow sync.Mutex // serializes setting geom and adding pages
	n    atomic.Int64
}

const (
	chiPageBits = 10
	chiPageSize = 1 << chiPageBits
	chiWords    = chiPageSize / 64
	// maxIndexID bounds the directory (to 32 MiB of page pointers) so a
	// corrupt index file cannot ask for an absurd allocation.
	maxIndexID = 1 << 32
)

// chiGeom is the geometry every entry of one index shares: the header
// of each slot, and its number of counts, GW*GH*len(Edges).
type chiGeom struct {
	proto  CHI
	stride int
}

// chiPage holds the entries of 1 024 consecutive ids. taken marks
// claimed slots, ready published ones (a subset), bit i%64 of word i/64
// for slot i; chis[i].Cum views slab[i*stride:][:stride].
type chiPage struct {
	taken, ready [chiWords]atomic.Uint64
	chis         [chiPageSize]CHI
	slab         []int32
}

// NewMemoryIndex returns an empty index that builds CHIs with cfg,
// normalized. An invalid cfg makes every build fail.
func NewMemoryIndex(cfg Config) *MemoryIndex {
	ix := &MemoryIndex{builder: newBuilder(cfg)}
	ix.dir.Store(new([]*chiPage))
	return ix
}

// Config returns the build configuration of the index.
func (ix *MemoryIndex) Config() Config { return ix.cfg }

// ChiFor returns the CHI for id, or (nil, nil) when not indexed. The
// CHI views the index's slot and must not be modified.
func (ix *MemoryIndex) ChiFor(id int64) (*CHI, error) {
	dir := *ix.dir.Load()
	if p := uint64(id-1) >> chiPageBits; p < uint64(len(dir)) && dir[p] != nil {
		i := (id - 1) & (chiPageSize - 1)
		if dir[p].ready[i>>6].Load()&(1<<(i&63)) != 0 {
			return &dir[p].chis[i], nil
		}
	}
	return nil, nil
}

// geometryFor returns the index geometry when a w×h entry fits it,
// fixing it on the first entry, or nil when such an entry cannot be
// indexed (another geometry, or an invalid config).
func (ix *MemoryIndex) geometryFor(w, h int) *chiGeom {
	g := ix.geom.Load()
	if g == nil {
		if ix.err != nil || w <= 0 || h <= 0 {
			return nil
		}
		ix.grow.Lock()
		if g = ix.geom.Load(); g == nil {
			g = &chiGeom{proto: ix.header(w, h)}
			g.stride, g.proto.geom = g.proto.GW*g.proto.GH*len(ix.cfg.Edges), g
			ix.geom.Store(g)
		}
		ix.grow.Unlock()
	}
	if g.proto.W != w || g.proto.H != h {
		return nil
	}
	return g
}

// newPage allocates a page of empty slots under geometry g.
func (ix *MemoryIndex) newPage(g *chiGeom) *chiPage {
	pg := &chiPage{slab: make([]int32, chiPageSize*g.stride)}
	for i := range pg.chis {
		pg.chis[i] = g.proto
		pg.chis[i].Cum = pg.slab[i*g.stride : (i+1)*g.stride : (i+1)*g.stride]
	}
	return pg
}

// claim reserves id's slot for a w×h entry, adding its page when
// needed, or returns nil when id cannot name a mask, the entry does not
// fit the geometry, or the slot is taken: the first writer wins (a build
// is deterministic, so a later one would write the same counts). Every
// check runs before the claim, so a claimed slot is always published.
func (ix *MemoryIndex) claim(id int64, w, h int) (*chiPage, int) {
	if id < 1 || id > maxIndexID {
		return nil, 0
	}
	g := ix.geometryFor(w, h)
	if g == nil {
		return nil, 0
	}
	p, i := int((id-1)>>chiPageBits), int((id-1)&(chiPageSize-1))
	dir := *ix.dir.Load()
	if p >= len(dir) || dir[p] == nil {
		ix.grow.Lock()
		if dir = *ix.dir.Load(); p >= len(dir) || dir[p] == nil {
			grown := make([]*chiPage, max(len(dir), p+1))
			copy(grown, dir)
			grown[p] = ix.newPage(g)
			ix.dir.Store(&grown)
			dir = grown
		}
		ix.grow.Unlock()
	}
	pg := dir[p]
	// A Load/CompareAndSwap loop, not taken.Or: go1.24.0 at GOAMD64=v3
	// reuses the slot index's register inside the loop it lowers an Or
	// whose result is used into, and indexes taken with garbage.
	word, bit := &pg.taken[i>>6], uint64(1)<<(i&63)
	for {
		old := word.Load()
		if old&bit != 0 {
			return nil, 0
		}
		if word.CompareAndSwap(old, old|bit) {
			return pg, i
		}
	}
}

// publish makes a built slot visible to ChiFor.
func (ix *MemoryIndex) publish(pg *chiPage, i int) {
	pg.ready[i>>6].Or(1 << (i & 63))
	ix.n.Add(1)
}

// Observe indexes a mask that a query just loaded, if it is not
// indexed yet. Its signature matches Env.OnVerify so the incremental
// mode is wired as OnVerify: idx.Observe. It never retains m: the
// entry is built into its slot before it returns, so the engine may
// release the mask immediately afterwards. Of two goroutines observing
// one mask the loser returns at once; no build blocks a ChiFor.
func (ix *MemoryIndex) Observe(id int64, m *Mask) { ix.observe(id, m) }

// observe is Observe reporting whether it indexed m.
func (ix *MemoryIndex) observe(id int64, m *Mask) bool {
	if m == nil {
		return false
	}
	pg, i := ix.claim(id, m.W, m.H)
	if pg != nil {
		ix.fill(&pg.chis[i], m)
		ix.publish(pg, i)
	}
	return pg != nil
}

// Len returns the number of indexed masks.
func (ix *MemoryIndex) Len() int { return int(ix.n.Load()) }

// SizeBytes reports the bytes of the index's allocated slabs.
func (ix *MemoryIndex) SizeBytes() int64 {
	var n int64
	for _, pg := range *ix.dir.Load() {
		if pg != nil {
			n += int64(len(pg.slab)) * 4
		}
	}
	return n
}

// The index file is the arena on disk, little-endian throughout:
//
//	magic "MSCHIIDX", format version (u32)
//	config: cell width, cell height, edge count k (u32 each), k edges (f64 bits)
//	geometry: W, H, stride, page count (u32 each); all 0 for an empty index
//	presence bitmap: 16 u64 words per page, bit i%64 of word i/64 = slot i
//	slabs: for each page with a present slot, chiPageSize*stride counts (i32),
//	       an absent slot's all 0
const (
	indexMagic   = "MSCHIIDX"
	indexVersion = 1
)

var le = binary.LittleEndian

// Encode writes the index in the index file format; ReadMemoryIndex
// reads it back (the DB facade persists it to <db>/chi.idx). It is safe
// beside concurrent writers: it writes the slots published when it
// reads each page's bitmap, and a published slot never changes.
func (ix *MemoryIndex) Encode(out io.Writer) error {
	dir := *ix.dir.Load()
	var w, h, stride int
	if g := ix.geom.Load(); g != nil {
		w, h, stride = g.proto.W, g.proto.H, g.stride
	}
	b := le.AppendUint32([]byte(indexMagic), indexVersion)
	for _, v := range []int{ix.cfg.CellW, ix.cfg.CellH, len(ix.cfg.Edges)} {
		b = le.AppendUint32(b, uint32(v))
	}
	for _, e := range ix.cfg.Edges {
		b = le.AppendUint64(b, math.Float64bits(e))
	}
	for _, v := range []int{w, h, stride, len(dir)} {
		b = le.AppendUint32(b, uint32(v))
	}
	ready := make([]uint64, len(dir)*chiWords)
	for p, pg := range dir {
		for j := 0; pg != nil && j < chiWords; j++ {
			ready[p*chiWords+j] = pg.ready[j].Load()
		}
	}
	for _, word := range ready {
		b = le.AppendUint64(b, word)
	}
	if _, err := out.Write(b); err != nil {
		return err
	}
	for p, pg := range dir {
		bitmap := [chiWords]uint64(ready[p*chiWords:])
		if bitmap == [chiWords]uint64{} {
			continue
		}
		b = slices.Grow(b[:0], chiPageSize*stride*4)
		for i := range pg.chis {
			if bitmap[i>>6]&(1<<(i&63)) == 0 {
				b = append(b, make([]byte, stride*4)...) // unpublished: not read
				continue
			}
			for _, v := range pg.chis[i].Cum {
				b = le.AppendUint32(b, uint32(v))
			}
		}
		if _, err := out.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadMemoryIndex reads an index written by Encode; any other input,
// an earlier version's gob index among it, is an error. It rejects,
// naming the mask, a file whose config is not in normal form or with an
// entry its config could not have built (see CHI.validate): queries
// trust every entry's shape and counts, so a malformed one would panic
// a query or decide it wrongly.
func ReadMemoryIndex(r io.Reader) (*MemoryIndex, error) {
	b, err := readSized(r)
	var ix *MemoryIndex
	if err == nil {
		ix, err = decodeIndex(b)
	}
	if err != nil {
		return nil, fmt.Errorf("core: read index: %w", err)
	}
	return ix, nil
}

// readSized reads r to its end into one buffer sized from r — Stat on
// a file, Len or Size in memory — so the read never regrows it; a
// reader that reports no size is read as its data grows the buffer.
func readSized(r io.Reader) ([]byte, error) {
	n := 0
	switch s := r.(type) {
	case interface{ Len() int }:
		n = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			n = int(fi.Size())
		}
	case interface{ Size() int64 }:
		n = int(s.Size())
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeIndex reads an index file. Every count the file declares is
// checked against the bytes that remain before anything is allocated
// for it; each page's counts are copied into its slab in one pass,
// then validated.
func decodeIndex(b []byte) (*MemoryIndex, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("%d-byte header", len(b))
	}
	if !bytes.HasPrefix(b, []byte(indexMagic)) {
		return nil, fmt.Errorf("no %q magic: not an index file", indexMagic)
	}
	if v := le.Uint32(b[8:]); v != indexVersion {
		return nil, fmt.Errorf("format version %d, want %d", v, indexVersion)
	}
	cellW, cellH, k := int(le.Uint32(b[12:])), int(le.Uint32(b[16:])), int64(le.Uint32(b[20:]))
	if b = b[24:]; 8*k+16 > int64(len(b)) {
		return nil, fmt.Errorf("%d edges declared, %d bytes remain", k, len(b))
	}
	cfg := Config{CellW: cellW, CellH: cellH, Edges: make([]float64, k)}
	for i := range cfg.Edges {
		cfg.Edges[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
	if n, err := cfg.Normalize(); err != nil || !slices.Equal(n.Edges, cfg.Edges) {
		return nil, fmt.Errorf("config %s is not normalized", cfg.Key())
	}
	b = b[8*k:]
	w, h, stride, pages := int(le.Uint32(b)), int(le.Uint32(b[4:])), int64(le.Uint32(b[8:])), int64(le.Uint32(b[12:]))
	if b = b[16:]; w != 0 || h != 0 || stride != 0 || pages != 0 {
		gw, gh := int64(w-1)/int64(cellW)+1, int64(h-1)/int64(cellH)+1
		if cells := stride / k; w == 0 || h == 0 || stride%k != 0 || cells%gw != 0 || cells/gw != gh {
			return nil, fmt.Errorf("stride %d for %dx%d masks under %s", stride, w, h, cfg.Key())
		}
	}
	if pages > maxIndexID>>chiPageBits || pages*chiWords*8 > int64(len(b)) {
		return nil, fmt.Errorf("%d pages declared, %d bytes remain", pages, len(b))
	}
	bitmap, b := b[:pages*chiWords*8], b[pages*chiWords*8:]
	present := int64(0)
	for p := range pages {
		if slices.ContainsFunc(bitmap[p*chiWords*8:(p+1)*chiWords*8], func(c byte) bool { return c != 0 }) {
			present++
		}
	}
	if size := chiPageSize * stride * 4; present == 0 && len(b) != 0 || present != 0 && (int64(len(b))%present != 0 || int64(len(b))/present != size) {
		return nil, fmt.Errorf("%d pages of %d counts declared, %d bytes remain", present, chiPageSize*stride, len(b))
	}
	ix := NewMemoryIndex(cfg)
	var g *chiGeom
	if w != 0 {
		g = ix.geometryFor(w, h)
	}
	dir := make([]*chiPage, pages)
	for p := range dir {
		var words [chiWords]uint64
		for j := range words {
			words[j] = le.Uint64(bitmap[(p*chiWords+j)*8:])
		}
		if words == ([chiWords]uint64{}) {
			continue
		}
		pg := ix.newPage(g)
		for j := range pg.slab {
			pg.slab[j] = int32(le.Uint32(b[4*j:]))
		}
		b = b[4*len(pg.slab):]
		for i := range pg.chis {
			id := int64(p)<<chiPageBits + int64(i) + 1
			if words[i>>6]&(1<<(i&63)) != 0 {
				if err := pg.chis[i].validate(ix.cfg); err != nil {
					return nil, fmt.Errorf("mask %d: %w", id, err)
				}
			} else if slices.ContainsFunc(pg.chis[i].Cum, func(v int32) bool { return v != 0 }) {
				return nil, fmt.Errorf("mask %d: counts in an absent slot", id)
			}
		}
		for j, word := range words {
			pg.taken[j].Store(word)
			pg.ready[j].Store(word)
			ix.n.Add(int64(bits.OnesCount64(word)))
		}
		dir[p] = pg
	}
	ix.dir.Store(&dir)
	return ix, nil
}
