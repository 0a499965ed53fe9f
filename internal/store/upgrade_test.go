package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"masksearch/internal/core"
)

// upgradeSpec is the dataset the upgrade test grows: 12 images of one
// saliency and one human attention map each, ids 1–24.
var upgradeSpec = Spec{Name: "u", Images: 12, Models: 1, W: 16, H: 16, Seed: 11, HumanAttention: true}

// appendInPlace writes to the single-segment layout at dir what an
// older version's in-place compaction appended for masks, whose ids
// continue the dataset: their pixels to masks.bin — under RLE their
// core.EncodeRLE streams to masks.rle and end offsets to masks.rle.idx
// — and their rows to catalog.bin.
func appendInPlace(t *testing.T, dir, codec string, masks []IngestMask) {
	t.Helper()
	var entries []Entry
	var pix, idx []byte
	var end int64
	if codec == CodecRLE {
		fi, err := os.Stat(filepath.Join(dir, masksRLEFile))
		if err != nil {
			t.Fatal(err)
		}
		end = fi.Size()
	}
	for _, m := range masks {
		entries = append(entries, m.Entry)
		if codec != CodecRLE {
			pix = append(pix, m.Pix...)
			continue
		}
		stream := core.EncodeRLE(m.Pix, upgradeSpec.W, upgradeSpec.H)
		pix = append(pix, stream...)
		end += int64(len(stream))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(end))
	}
	rows, err := encodeCatalog(entries)
	if err != nil {
		t.Fatal(err)
	}
	if codec == CodecRLE {
		appendFile(t, filepath.Join(dir, masksRLEFile), pix)
		appendFile(t, filepath.Join(dir, masksRLEIndexFile), idx)
	} else {
		appendFile(t, filepath.Join(dir, masksFile), pix)
	}
	appendFile(t, filepath.Join(dir, catalogBinFile), rows)
}

// freshMasks opens a fresh generation of upgradeSpec in codec and
// returns it with its masks as ingestable entries and raw pixels.
func freshMasks(t *testing.T, codec string) (*Store, *Catalog, []IngestMask) {
	t.Helper()
	dir := t.TempDir()
	if err := Generate(dir, upgradeSpec, 1, codec); err != nil {
		t.Fatal(err)
	}
	st, cat, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var masks []IngestMask
	for _, e := range cat.Entries() {
		m, err := st.LoadMask(e.MaskID)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, IngestMask{Entry: e, Pix: append([]byte(nil), m.Decoded().Bytes...)})
		st.ReleaseMask(m)
	}
	return st, cat, masks
}

// checkSameMasks fails unless st and cat hold exactly the masks of want:
// the same catalog rows and pixels, and for masks the base serves under
// RLE the same streams as the fresh generation.
func checkSameMasks(t *testing.T, st MaskStore, cat *Catalog, want []IngestMask, fresh *Store) {
	t.Helper()
	if st.NumMasks() != len(want) || cat.Len() != len(want) {
		t.Fatalf("store holds %d masks, catalog %d rows, want %d", st.NumMasks(), cat.Len(), len(want))
	}
	for i, w := range want {
		if e, err := cat.Entry(w.Entry.MaskID); err != nil || e != w.Entry {
			t.Fatalf("row %d: %+v (%v), want %+v", i, e, err, w.Entry)
		}
		m, err := st.LoadMask(w.Entry.MaskID)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fresh.LoadMask(w.Entry.MaskID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Decoded().Bytes, w.Pix) || m.RLE != nil && !bytes.Equal(m.RLE, f.RLE) {
			t.Fatalf("mask %d differs from a fresh generation", w.Entry.MaskID)
		}
		st.ReleaseMask(m)
		fresh.ReleaseMask(f)
	}
}

// TestUpgradeInPlaceCompacted opens a single-segment dataset an older
// version compacted in place — masks.bin (or masks.rle and its offset
// column) and catalog.bin grown, the manifest count bumped, no segment
// directories. Its files match its manifest, so it is a current-format
// dataset and needs no reader of its own: it opens read-only and
// through ingest, its next compaction adds shard-001/, and every answer
// matches a fresh generation of the same masks.
func TestUpgradeInPlaceCompacted(t *testing.T) {
	for _, codec := range []string{CodecRaw, CodecRLE} {
		fresh, _, masks := freshMasks(t, codec)
		dir := t.TempDir()
		base := upgradeSpec
		base.Images = 8 // ids 1–16
		if err := Generate(dir, base, 1, codec); err != nil {
			t.Fatal(err)
		}
		// The older compaction moved images 9–10 (ids 17–20) in place.
		appendInPlace(t, dir, codec, masks[16:20])
		man, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		man.NumMasks = 20
		if err := writeJSON(filepath.Join(dir, manifestFile), man); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, walDirName), 0o755); err != nil {
			t.Fatal(err)
		}

		st, cat, err := Open(dir)
		if err != nil {
			t.Fatalf("%q: read-only open: %v", codec, err)
		}
		checkSameMasks(t, st, cat, masks[:20], fresh)
		st.Close()

		ws, cat, err := OpenIngest(DirFS(), dir)
		if err != nil {
			t.Fatalf("%q: ingest open: %v", codec, err)
		}
		checkSameMasks(t, ws, cat, masks[:20], fresh)
		ids, err := ws.Append(context.Background(), masks[20:])
		if err != nil || ids[0] != 21 {
			t.Fatalf("%q: append: ids %v, err %v", codec, ids, err)
		}
		if n, err := ws.Compact(context.Background()); err != nil || n != 4 {
			t.Fatalf("%q: compact: moved %d, err %v", codec, n, err)
		}
		if _, err := os.Stat(filepath.Join(dir, ShardDirName(1), catalogBinFile)); err != nil {
			t.Fatalf("%q: compaction wrote no shard-001: %v", codec, err)
		}
		if n := ws.Base().NumShards(); n != 2 {
			t.Fatalf("%q: %d segments after compaction, want 2", codec, n)
		}
		checkSameMasks(t, ws, cat, masks, fresh)
		ws.Close()

		st, cat, err = Open(dir)
		if err != nil {
			t.Fatalf("%q: reopen: %v", codec, err)
		}
		checkSameMasks(t, st, cat, masks, fresh)
		st.Close()
	}
}
