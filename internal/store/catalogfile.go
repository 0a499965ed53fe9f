package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"masksearch/internal/core"
)

// The catalog file. Every segment directory holds a catalog.bin of one
// fixed-width row per mask, in id order:
//
//	[49B entry][3B zero][4B CRC32C over the preceding 52 bytes]
//
// The entry is the one encoding WAL mask records carry too (putEntry):
// maskID(8) imageID(8) modelID(4) maskType(4) label(4) pred(4)
// modified(1) object x0,y0,x1,y1(4 each), little-endian, the 32-bit
// fields sign-extended on decode. Open reads the file with one ReadFile
// and decodes it in one pass; compaction writes a new segment's file
// whole. A segment without catalog.bin, as earlier versions wrote them,
// fails every open: such a dataset must be regenerated.
const (
	entrySize = 49
	// CatalogRowSize is the size of one catalog.bin row.
	CatalogRowSize = 56
)

// putEntry writes the entrySize-byte encoding of e into p. The 32-bit
// fields are truncated; checkEntry says whether they fit.
func putEntry(p []byte, e Entry) {
	_ = p[entrySize-1]
	binary.LittleEndian.PutUint64(p[0:], uint64(e.MaskID))
	binary.LittleEndian.PutUint64(p[8:], uint64(e.ImageID))
	binary.LittleEndian.PutUint32(p[16:], uint32(int32(e.ModelID)))
	binary.LittleEndian.PutUint32(p[20:], uint32(int32(e.MaskType)))
	binary.LittleEndian.PutUint32(p[24:], uint32(int32(e.Label)))
	binary.LittleEndian.PutUint32(p[28:], uint32(int32(e.Pred)))
	p[32] = 0
	if e.Modified {
		p[32] = 1
	}
	binary.LittleEndian.PutUint32(p[33:], uint32(int32(e.Object.X0)))
	binary.LittleEndian.PutUint32(p[37:], uint32(int32(e.Object.Y0)))
	binary.LittleEndian.PutUint32(p[41:], uint32(int32(e.Object.X1)))
	binary.LittleEndian.PutUint32(p[45:], uint32(int32(e.Object.Y1)))
}

// getEntry decodes the entrySize-byte encoding at the start of p. The
// encoding is canonical: a modified byte other than 0 or 1 is an error.
func getEntry(p []byte) (Entry, error) {
	_ = p[entrySize-1]
	if p[32] > 1 {
		return Entry{}, fmt.Errorf("modified byte is %d, want 0 or 1", p[32])
	}
	i32 := func(off int) int { return int(int32(binary.LittleEndian.Uint32(p[off:]))) }
	return Entry{
		MaskID:   int64(binary.LittleEndian.Uint64(p[0:])),
		ImageID:  int64(binary.LittleEndian.Uint64(p[8:])),
		ModelID:  i32(16),
		MaskType: i32(20),
		Label:    i32(24),
		Pred:     i32(28),
		Modified: p[32] == 1,
		Object:   core.Rect{X0: i32(33), Y0: i32(37), X1: i32(41), Y1: i32(45)},
	}, nil
}

// checkEntry reports the first field of e whose value does not fit its
// 32-bit slot in the entry encoding, which would store a different
// value than the one given.
func checkEntry(e Entry) error {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"model_id", e.ModelID}, {"mask_type", e.MaskType}, {"label", e.Label}, {"pred", e.Pred},
		{"object.x0", e.Object.X0}, {"object.y0", e.Object.Y0}, {"object.x1", e.Object.X1}, {"object.y1", e.Object.Y1},
	} {
		if int(int32(f.v)) != f.v {
			return fmt.Errorf("%s %d does not fit the catalog's 32-bit field", f.name, f.v)
		}
	}
	return nil
}

// encodeCatalog returns the catalog.bin rows of entries.
func encodeCatalog(entries []Entry) ([]byte, error) {
	b := make([]byte, len(entries)*CatalogRowSize)
	for i, e := range entries {
		if err := checkEntry(e); err != nil {
			return nil, fmt.Errorf("catalog row of mask %d: %w", e.MaskID, err)
		}
		row := b[i*CatalogRowSize : (i+1)*CatalogRowSize]
		putEntry(row, e)
		binary.LittleEndian.PutUint32(row[52:], crc32.Checksum(row[:52], castagnoli))
	}
	return b, nil
}

// decodeCatalog decodes b as a catalog.bin of exactly n rows, the first
// for mask firstID. Every row must carry its checksum, zero padding,
// a canonical entry and the next id in sequence — a per-row checksum
// alone would accept two rows swapped.
func decodeCatalog(b []byte, n int, firstID int64) ([]Entry, error) {
	if len(b)%CatalogRowSize != 0 || len(b)/CatalogRowSize != n {
		return nil, fmt.Errorf("%s holds %d bytes (%d rows of %d B + %d), manifest says %d masks — truncated or corrupted catalog",
			catalogBinFile, len(b), len(b)/CatalogRowSize, CatalogRowSize, len(b)%CatalogRowSize, n)
	}
	entries := make([]Entry, n)
	for i := range entries {
		row := b[i*CatalogRowSize : (i+1)*CatalogRowSize]
		if binary.LittleEndian.Uint32(row[52:]) != crc32.Checksum(row[:52], castagnoli) {
			return nil, fmt.Errorf("%s row %d: checksum mismatch", catalogBinFile, i)
		}
		if row[49]|row[50]|row[51] != 0 {
			return nil, fmt.Errorf("%s row %d: nonzero padding", catalogBinFile, i)
		}
		e, err := getEntry(row)
		if err != nil {
			return nil, fmt.Errorf("%s row %d: %w", catalogBinFile, i, err)
		}
		if want := firstID + int64(i); e.MaskID != want {
			return nil, fmt.Errorf("%s row %d holds mask %d, want %d", catalogBinFile, i, e.MaskID, want)
		}
		entries[i] = e
	}
	return entries, nil
}

// readCatalog reads the n-row catalog.bin of the segment directory dir,
// whose first mask is firstID.
func readCatalog(dir string, n int, firstID int64) ([]Entry, error) {
	b, err := os.ReadFile(filepath.Join(dir, catalogBinFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w — a dataset an earlier version wrote must be regenerated", err)
	}
	if err != nil {
		return nil, err
	}
	return decodeCatalog(b, n, firstID)
}
