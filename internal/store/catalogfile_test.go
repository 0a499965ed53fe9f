package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"masksearch/internal/core"
)

// catalogSample returns n rows for ids firstID.., with every field set
// and the 32-bit fields at both ends of their range.
func catalogSample(n int, firstID int64) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			MaskID: firstID + int64(i), ImageID: int64(1)<<40 + int64(i), ModelID: i,
			MaskType: i % 2, Label: math.MaxInt32 - i, Pred: math.MinInt32 + i, Modified: i%2 == 1,
			Object: core.Rect{X0: -i, Y0: i, X1: 100 + i, Y1: math.MaxInt32},
		}
	}
	return entries
}

// TestCatalogRowsRejectCorruption: rows round-trip and re-encode to the
// same bytes; one flipped bit anywhere in a row is an error naming that
// row, every truncation is an error, and so are two swapped rows (whose
// checksums both hold), a non-canonical modified byte and nonzero
// padding under a valid checksum.
func TestCatalogRowsRejectCorruption(t *testing.T) {
	const firstID = 7
	entries := catalogSample(5, firstID)
	enc, err := encodeCatalog(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(entries)*CatalogRowSize {
		t.Fatalf("%d rows encode to %d bytes, want %d", len(entries), len(enc), len(entries)*CatalogRowSize)
	}
	got, err := decodeCatalog(enc, len(entries), firstID)
	if err != nil || !reflect.DeepEqual(got, entries) {
		t.Fatalf("round trip: err %v\ngot  %+v\nwant %+v", err, got, entries)
	}
	if re, _ := encodeCatalog(got); !bytes.Equal(re, enc) {
		t.Fatal("re-encoding a decoded catalog differs")
	}

	for bit := 0; bit < len(enc)*8; bit++ {
		b := bytes.Clone(enc)
		b[bit/8] ^= 1 << (bit % 8)
		row := bit / 8 / CatalogRowSize
		if _, err := decodeCatalog(b, len(entries), firstID); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("row %d:", row)) {
			t.Fatalf("bit %d (row %d) flipped: err = %v, want an error naming row %d", bit, row, err, row)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeCatalog(enc[:n], len(entries), firstID); err == nil || !strings.Contains(err.Error(), "manifest says 5 masks") {
			t.Fatalf("truncated to %d bytes: err = %v, want a size error", n, err)
		}
	}
	if _, err := decodeCatalog(append(bytes.Clone(enc), 0), len(entries), firstID); err == nil {
		t.Fatal("a trailing byte decoded")
	}

	swapped := bytes.Clone(enc)
	copy(swapped[1*CatalogRowSize:], enc[2*CatalogRowSize:3*CatalogRowSize])
	copy(swapped[2*CatalogRowSize:], enc[1*CatalogRowSize:2*CatalogRowSize])
	if _, err := decodeCatalog(swapped, len(entries), firstID); err == nil || !strings.Contains(err.Error(), "row 1 holds mask 9, want 8") {
		t.Fatalf("swapped rows: err = %v", err)
	}

	// Re-checksummed rows: only the canonical-form checks can catch them.
	for _, tc := range []struct {
		off  int
		v    byte
		want string
	}{{32, 2, "modified byte is 2"}, {50, 1, "nonzero padding"}} {
		b := bytes.Clone(enc)
		row := b[3*CatalogRowSize : 4*CatalogRowSize]
		row[tc.off] = tc.v
		binary.LittleEndian.PutUint32(row[52:], crc32.Checksum(row[:52], castagnoli))
		if _, err := decodeCatalog(b, len(entries), firstID); err == nil || !strings.Contains(err.Error(), "row 3: "+tc.want) {
			t.Fatalf("byte %d = %d: err = %v, want %q", tc.off, tc.v, err, tc.want)
		}
	}

	out := entries[2]
	out.Object.X1 = math.MaxInt32 + 1
	if _, err := encodeCatalog([]Entry{out}); err == nil || !strings.Contains(err.Error(), "object.x1") {
		t.Fatalf("encoding an out-of-range field: err = %v", err)
	}
}

// allocated reports the heap bytes allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzCatalogRows decodes arbitrary bytes as a catalog.bin of a declared
// row count: decoding must never panic nor allocate more than a small
// multiple of the input, and rows it accepts must re-encode
// byte-identically.
func FuzzCatalogRows(f *testing.F) {
	enc, err := encodeCatalog(catalogSample(3, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, 3, int64(1))
	f.Add(enc[:CatalogRowSize], 1, int64(1))
	f.Add(enc, 2, int64(1))
	f.Add(enc, 3, int64(2))
	f.Add([]byte{}, 0, int64(1))
	f.Add([]byte{}, 1<<40, int64(1))
	f.Fuzz(func(t *testing.T, b []byte, n int, firstID int64) {
		// The least of three decodes is the decoder's own allocation: the
		// fuzzing engine's goroutines allocate beside it now and then.
		var entries []Entry
		var err error
		least := uint64(math.MaxUint64)
		for range 3 {
			least = min(least, allocated(func() { entries, err = decodeCatalog(b, n, firstID) }))
		}
		if least > 2*uint64(len(b))+1024 {
			t.Fatalf("decoding %d bytes as %d rows allocated %d bytes", len(b), n, least)
		}
		if err != nil {
			return
		}
		re, err := encodeCatalog(entries)
		if err != nil {
			t.Fatalf("accepted rows do not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted catalog does not re-encode identically:\nin:  %x\nout: %x", b, re)
		}
	})
}

// TestCatalogTornAppendTrimmed: a top-level catalog.bin that holds
// rows the manifest does not count — here one whole row and one torn
// mid-row, past a compaction that added a segment, as an older
// version's crashed in-place compaction left it — fails every open,
// ingest opens too, naming the file and both counts.
func TestCatalogTornAppendTrimmed(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	top := cat.Len()
	if _, err := ws.Append(context.Background(), ingestBatch(4, 16, 16, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	ws.Close()

	path := filepath.Join(dir, catalogBinFile)
	appendFile(t, path, bytes.Repeat([]byte{0xA5}, CatalogRowSize+CatalogRowSize/2))
	torn := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "catalog.bin holds") &&
			strings.Contains(err.Error(), fmt.Sprintf("manifest says %d masks", top))
	}
	if _, _, err := Open(dir); !torn(err) {
		t.Fatalf("open of an over-long catalog.bin: err = %v", err)
	}
	if _, _, err := OpenIngest(DirFS(), dir); !torn(err) {
		t.Fatalf("ingest open of an over-long catalog.bin: err = %v", err)
	}
}
