package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// allocated reports the heap bytes allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// each calls f for every indexed mask of ix in id order.
func (ix *MemoryIndex) each(f func(id int64, chi *CHI)) {
	for id := int64(1); id <= int64(len(*ix.dir.Load()))*chiPageSize; id++ {
		if c, _ := ix.ChiFor(id); c != nil {
			f(id, c)
		}
	}
}

// encodeIndex returns ix in the index file format.
func encodeIndex(tb testing.TB, ix *MemoryIndex) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// arenaHeader is an index file's header, as Encode lays it out.
func arenaHeader(cellW, cellH uint32, edges []float64, geo ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(indexMagic), indexVersion)
	for _, v := range []uint32{cellW, cellH, uint32(len(edges))} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
	}
	for _, v := range geo {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// FuzzIndexFile reads arbitrary bytes with ReadMemoryIndex: it must
// never panic nor allocate more than a small multiple of the input,
// input without the index file's magic must be an error, and a file it
// accepts must re-encode byte-identically. Beside
// that multiple the limit allows the two fixed costs of what a header
// that passes every check is worth, measured here: the index itself
// (its builder's byte tables) and, for each page the file fills, the
// page's CHI header array (~100 KiB), which the input pays for with at
// least a 128-byte bitmap and a 4 KiB slab.
func FuzzIndexFile(f *testing.F) {
	// A page of one count per slot keeps the largest seed at 4.5 KiB: the
	// fuzzer minimizes every new input it finds, and minimizing a large
	// one stalls it (CI's smoke caps that at 1s per input).
	rng := rand.New(rand.NewSource(41))
	cfg := Config{CellW: 4, CellH: 4, Edges: []float64{0}}
	f.Add(encodeIndex(f, NewMemoryIndex(cfg)))
	sparse := NewMemoryIndex(cfg)
	for _, id := range []int64{2*chiPageSize + 1, 2*chiPageSize + 64, 2*chiPageSize + 65} {
		sparse.Observe(id, randomByteMask(rng, 3, 2))
	}
	f.Add(encodeIndex(f, sparse))
	f.Add(arenaHeader(1, 1, []float64{0}, 1, 1, 1, 1<<22))
	f.Add(append([]byte("MSCHIIDY"), encodeIndex(f, sparse)[len(indexMagic):]...)) // valid but for its magic
	index := allocated(func() { sparse = NewMemoryIndex(cfg) })
	page := allocated(func() { sparse.newPage(&chiGeom{}) })
	f.Fuzz(func(t *testing.T, data []byte) {
		// The least of three reads is the reader's own allocation: the
		// fuzzing engine's goroutines allocate beside it now and then.
		var ix *MemoryIndex
		var err error
		least := uint64(math.MaxUint64)
		for range 3 {
			least = min(least, allocated(func() { ix, err = ReadMemoryIndex(bytes.NewReader(data)) }))
		}
		n := uint64(len(data))
		if limit := 4*n + 1024 + index + n/(128+4096)*page; least > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", n, least, limit)
		}
		if err == nil && !bytes.HasPrefix(data, []byte(indexMagic)) {
			t.Fatalf("input without the magic was accepted: %x", data)
		}
		if err != nil {
			return
		}
		if re := encodeIndex(t, ix); !bytes.Equal(re, data) {
			t.Fatalf("accepted file does not re-encode identically:\nin:  %x\nout: %x", data, re)
		}
	})
}

// TestIndexFileHugeCount: a header declaring more edges, pages or counts
// than the file holds is rejected before anything is allocated for
// them — 2^32-1 edges, 2^22 pages (2^32 ids) and a 2^32-count stride
// in a few bytes each.
func TestIndexFileHugeCount(t *testing.T) {
	for name, file := range map[string][]byte{
		// magic, version, cell size: 20 bytes, then the edge count.
		"edges":  binary.LittleEndian.AppendUint32(arenaHeader(1, 1, nil)[:20], math.MaxUint32),
		"pages":  arenaHeader(1, 1, []float64{0}, 1, 1, 1, 1<<22),
		"stride": append(arenaHeader(1, 1, []float64{0}, 65535, 65535, 65535*65535, 1), append([]byte{1}, make([]byte, 127)...)...),
	} {
		var err error
		grew := allocated(func() { _, err = decodeIndex(file) })
		if err == nil || !strings.Contains(err.Error(), "declared") {
			t.Fatalf("%s: err = %v, want a declared-count rejection", name, err)
		}
		if grew > 1024 {
			t.Fatalf("%s: rejecting the count allocated %d bytes", name, grew)
		}
	}
}

// wildsIndexFile is the index file of 4 500 128x128 masks at the
// facade's default granularity (the explore workloads' shape, 3.28 MB),
// 16 saliency-shaped masks' CHIs repeated across the ids.
var wildsIndexFile = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(44))
	ix := NewMemoryIndex(Config{CellW: 32, CellH: 32, Edges: DefaultEdges(10)})
	var masks [16]*Mask
	for i := range masks {
		masks[i] = bimodalByteMask(rng, 128, 128)
	}
	for id := int64(1); id <= 4500; id++ {
		ix.Observe(id, masks[id%16])
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil || ix.Len() != 4500 {
		panic(fmt.Sprintf("encoding %d entries: %v", ix.Len(), err))
	}
	return buf.Bytes()
})

// writeIndexFile writes enc to a file in a temp dir and returns its path.
func writeIndexFile(tb testing.TB, enc []byte) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "chi.idx")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// readIndexShapes reads the file at path through each input shape
// ReadMemoryIndex meets: a file (sized by Stat), an in-memory reader
// (sized by Len) and a reader that reports no size and returns half of
// what each Read asks for.
func readIndexShapes(t *testing.T, path string) map[string]func() (*MemoryIndex, error) {
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() (*MemoryIndex, error){
		"file": func() (*MemoryIndex, error) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			return ReadMemoryIndex(f)
		},
		"bytes.Reader": func() (*MemoryIndex, error) { return ReadMemoryIndex(bytes.NewReader(enc)) },
		"unsized":      func() (*MemoryIndex, error) { return ReadMemoryIndex(iotest.HalfReader(bytes.NewReader(enc))) },
	}
}

// TestReadMemoryIndexInputShapes: whatever the reader's shape, an index
// file of two pages (one absent between them) decodes to an index that
// re-encodes byte-identically, and the file cut short by one byte fails
// with the slab count's error.
func TestReadMemoryIndexInputShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ix := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(4)})
	for _, id := range []int64{1, 700, 2*chiPageSize + 5} {
		ix.Observe(id, bimodalByteMask(rng, 16, 16))
	}
	enc := encodeIndex(t, ix)
	for name, read := range readIndexShapes(t, writeIndexFile(t, enc)) {
		ix, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re := encodeIndex(t, ix); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encodes to %d bytes differing from the %d read", name, len(re), len(enc))
		}
	}
	for name, read := range readIndexShapes(t, writeIndexFile(t, enc[:len(enc)-1])) {
		if _, err := read(); err == nil || !strings.Contains(err.Error(), "2 pages of 65536 counts declared") {
			t.Fatalf("%s: the file cut by one byte read with err %v, want the slab count's error", name, err)
		}
	}
}

// TestReadMemoryIndexAllocs: one read of the 4 500-entry index file
// from disk allocates at most 2.5x the file — the file's bytes once,
// the slabs they fill, the pages' CHI headers — as a read into one
// buffer sized from the file does; a buffer grown as it reads (6.3x)
// fails. The least of three reads is the reader's own allocation.
func TestReadMemoryIndexAllocs(t *testing.T) {
	enc := wildsIndexFile()
	path := writeIndexFile(t, enc)
	least := uint64(math.MaxUint64)
	for range 3 {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, allocated(func() { _, err = ReadMemoryIndex(f) }))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if limit := uint64(len(enc)) * 5 / 2; least > limit {
		t.Fatalf("reading the %d-byte index file allocated %d bytes (%.2fx), limit 2.5x", len(enc), least, float64(least)/float64(len(enc)))
	}
}

// BenchmarkReadMemoryIndex is the restore layer: one ReadMemoryIndex of
// the 4 500-entry 128x128 index file from disk per op (what LoadIndex
// does at every open of a DB or shard node), with the file's size as
// its bytes; the page cache holds the file after the first op.
func BenchmarkReadMemoryIndex(b *testing.B) {
	enc := wildsIndexFile()
	path := writeIndexFile(b, enc)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		_, err = ReadMemoryIndex(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlannedBoundsOverIndex: a query plan's bounds over the entries of
// an index equal CHI.CPBounds entry by entry — on an index built by
// Observe in shuffled id order across two pages and on that index read
// back from its file — for fixed rects (one memoized cover for every
// entry, each slot fitting the plan by its index's geometry) and
// per-mask boxes.
func TestPlannedBoundsOverIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	built := NewMemoryIndex(Config{CellW: 5, CellH: 4, Edges: DefaultEdges(8)})
	ids := rng.Perm(chiPageSize + 200)[:300]
	for _, i := range ids {
		built.Observe(int64(i+1), bimodalByteMask(rng, 24, 20))
	}
	read, err := ReadMemoryIndex(bytes.NewReader(encodeIndex(t, built)))
	if err != nil {
		t.Fatal(err)
	}
	box := func(id int64) Rect { x, y := int(id%11), int(id*7%9); return Rect{x, y, x + 9, y + 8} }
	for name, ix := range map[string]*MemoryIndex{"built": built, "read": read} {
		if ix.Len() != len(ids) {
			t.Fatalf("%s: %d entries, want %d", name, ix.Len(), len(ids))
		}
		for q := 0; q < 30; q++ {
			roi, vr := randomROI(rng, 24, 20), randomVR(rng)
			for _, region := range []RegionFn{FixedRegion(roi), box} {
				p := &planTerms([]CPTerm{{Region: region, Range: vr}})[0]
				for _, i := range ids {
					id := int64(i + 1)
					c := mustChi(t, ix, id)
					if got, want := p.bounds(c, id), c.CPBounds(region(id), vr); got != want {
						t.Fatalf("%s: mask %d %v %v: planned bounds %v, CPBounds %v", name, id, region(id), vr, got, want)
					}
				}
			}
		}
	}
}
