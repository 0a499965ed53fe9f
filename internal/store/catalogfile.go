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
// whole, and repairBase trims rows a crashed compaction of an older
// version appended past the top-level segment's count by truncation
// alone.
//
// catalog.json is the format this replaced: read-only opens still read
// it in memory, and OpenIngest migrates it to catalog.bin.
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

// readCatalog reads the n-row catalog of the segment directory dir,
// whose first mask is firstID: its catalog.bin, or the legacy
// catalog.json when no catalog.bin exists.
func readCatalog(dir string, n int, firstID int64) ([]Entry, error) {
	b, err := os.ReadFile(filepath.Join(dir, catalogBinFile))
	if errors.Is(err, fs.ErrNotExist) {
		entries, err := readLegacyCatalog(dir, n, firstID)
		if err == nil && len(entries) != n {
			err = fmt.Errorf("%s has %d rows, manifest says %d masks — inconsistent dataset", legacyCatalogFile, len(entries), n)
		}
		return entries, err
	}
	if err != nil {
		return nil, err
	}
	return decodeCatalog(b, n, firstID)
}

// readLegacyCatalog reads a catalog.json, which must hold at least n
// rows with ids from firstID on; rows past n (a crashed compaction
// wrote them before its commit) are returned unchecked.
func readLegacyCatalog(dir string, n int, firstID int64) ([]Entry, error) {
	var entries []Entry
	if err := readJSON(filepath.Join(dir, legacyCatalogFile), &entries); err != nil {
		return nil, err
	}
	if len(entries) < n {
		return nil, fmt.Errorf("%s has %d rows, manifest says %d masks — inconsistent dataset", legacyCatalogFile, len(entries), n)
	}
	for i, e := range entries[:n] {
		if want := firstID + int64(i); e.MaskID != want {
			return nil, fmt.Errorf("%s row %d holds mask %d, want %d", legacyCatalogFile, i, e.MaskID, want)
		}
	}
	return entries, nil
}

// migrateCatalogs converts every segment of the database at dir that
// still holds a legacy catalog.json: its first NumMasks rows become
// catalog.bin (written through fsys, fsynced, renamed, directory
// synced), then the JSON is removed. A crash at any point leaves each
// segment with either the JSON alone or a complete catalog.bin, which
// readCatalog prefers; the next migration removes the leftover JSON.
func migrateCatalogs(fsys FS, dir string, man Manifest) error {
	for _, seg := range man.segments() {
		segDir := filepath.Join(dir, seg.Dir)
		legacy := filepath.Join(segDir, legacyCatalogFile)
		if _, err := os.Stat(legacy); errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		bin := filepath.Join(segDir, catalogBinFile)
		if _, err := os.Stat(bin); errors.Is(err, fs.ErrNotExist) {
			entries, err := readLegacyCatalog(segDir, seg.NumMasks, seg.FirstID)
			if err != nil {
				return fmt.Errorf("migrate %s: %w", legacy, err)
			}
			rows, err := encodeCatalog(entries[:seg.NumMasks])
			if err != nil {
				return fmt.Errorf("migrate %s: %w", legacy, err)
			}
			if err := writeFileSync(fsys, bin, rows); err != nil {
				return fmt.Errorf("migrate %s: %w", legacy, err)
			}
			if err := fsys.SyncDir(segDir); err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
		if err := fsys.Remove(legacy); err != nil {
			return err
		}
		if err := fsys.SyncDir(segDir); err != nil {
			return err
		}
	}
	return nil
}

// CatalogFormat reports, without opening the database at dir, how its
// catalog is stored: "bin" when every segment holds a catalog.bin,
// "json" while some segment still holds only a legacy catalog.json
// (Open reads it in memory, OpenIngest migrates it). rows is the
// manifest's mask count, the number of rows the stored catalog holds.
func CatalogFormat(dir string) (format string, rows int, err error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return "", 0, err
	}
	for _, seg := range man.segments() {
		if _, err := os.Stat(filepath.Join(dir, seg.Dir, catalogBinFile)); errors.Is(err, fs.ErrNotExist) {
			return "json", man.NumMasks, nil
		} else if err != nil {
			return "", 0, err
		}
	}
	return "bin", man.NumMasks, nil
}
