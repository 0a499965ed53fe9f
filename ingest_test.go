package masksearch

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// appendBatch builds n deterministic masks for DB.Append; pixels are a
// gradient keyed on (seed, index) so recovery tests can compare bytes.
func appendBatch(t *testing.T, db *DB, n int, seed byte) []AppendMask {
	t.Helper()
	w, h := db.MaskDims()
	masks := make([]AppendMask, n)
	for i := range masks {
		pix := make([]byte, w*h)
		for j := range pix {
			pix[j] = seed + byte(i) + byte(j%11)
		}
		// One image id per batch, so a metadata equality filter can
		// select exactly this batch's masks.
		masks[i] = AppendMask{
			ImageID:  int64(9000 + int(seed)*100),
			ModelID:  1,
			MaskType: 0,
			Label:    i % 3,
			Pred:     i % 2,
			Object:   Rect{X0: 1, Y0: 1, X1: w / 2, Y1: h / 2},
			Pixels:   pix,
		}
	}
	return masks
}

func openIngestDB(t *testing.T, images, shards int) (string, *DB) {
	t.Helper()
	dir := t.TempDir()
	spec := TinyDataset()
	spec.Images = images
	spec.W, spec.H = 16, 16
	if err := GenerateShardedDatasetCodec(dir, spec, shards, CodecRaw); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, Options{PersistIndexOnClose: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return dir, db
}

func TestAppendImmediatelyQueryable(t *testing.T) {
	_, db := openIngestDB(t, 8, 1)
	ctx := context.Background()
	base := len(db.Entries())

	masks := appendBatch(t, db, 4, 1)
	ids, err := db.Append(ctx, masks)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || ids[0] != int64(base+1) {
		t.Fatalf("acked ids %v, want 4 ids from %d", ids, base+1)
	}

	// Metadata-only filter sees the new masks without any disk read.
	res, err := db.Query(ctx, `SELECT mask_id FROM masks WHERE image_id = 9100`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.IDs, ids) {
		t.Fatalf("metadata filter returned %v, want %v", res.IDs, ids)
	}

	// A CP filter loads the appended pixels from the WAL tail.
	res, err = db.Query(ctx, `SELECT mask_id FROM masks WHERE image_id = 9100 AND CP(mask, full, 0.0, 1.0) > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 4 {
		t.Fatalf("CP filter over appended masks returned %d ids, want 4", len(res.IDs))
	}
	// Pixel reads of WAL-resident ids are served from the tail and
	// counted as such. (The CP filter above may decide every mask from
	// its CHI bounds alone, so assert with an explicit load.)
	m, err := db.LoadMask(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes, masks[0].Pixels) {
		t.Fatalf("mask %d pixels differ from appended bytes", ids[0])
	}
	if rs := db.ReadStats(); rs.TailLoads == 0 {
		t.Fatalf("load of a WAL-resident mask not counted as a tail load: %+v", rs)
	}

	// Appended masks are indexed immediately (incremental Observe).
	if is, err := db.IndexStats(); err != nil || is.IndexedMasks < 4 {
		t.Fatalf("index after append: %+v, %v", is, err)
	}

	st := db.Stats().Ingest
	if st.AppendedMasks != 4 || st.AppendedBatches != 1 || st.TailMasks != 4 {
		t.Fatalf("ingest stats %+v", st)
	}
	for _, id := range ids {
		if loc := db.MaskLocation(id); !strings.HasPrefix(loc, "wal:") {
			t.Fatalf("mask %d location %q, want wal:*", id, loc)
		}
	}
}

func TestAppendDurableAcrossReopen(t *testing.T) {
	dir, db := openIngestDB(t, 8, 1)
	ctx := context.Background()
	masks := appendBatch(t, db, 5, 2)
	ids, err := db.Append(ctx, masks)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, object, 0.3, 1.0) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenWith(dir, Options{PersistIndexOnClose: false})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i, id := range ids {
		m, err := db2.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Bytes, masks[i].Pixels) {
			t.Fatalf("mask %d pixels differ after reopen", id)
		}
	}
	// Replayed masks answer queries identically to the pre-crash DB.
	res, err := db2.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, object, 0.3, 1.0) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.IDs, ref.IDs) {
		t.Fatalf("query after reopen: %v, want %v", res.IDs, ref.IDs)
	}
	// Recovery feeds replayed ids to the index like a live append would.
	if is, err := db2.IndexStats(); err != nil || is.IndexedMasks < len(ids) {
		t.Fatalf("index after replay: %+v, %v", is, err)
	}
	if st := db2.Stats().Ingest; st.ReplayedMasks != 5 {
		t.Fatalf("ingest stats after reopen: %+v", st)
	}
}

func TestCompactFacade(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(map[int]string{1: "single", 2: "sharded"}[shards], func(t *testing.T) {
			dir, db := openIngestDB(t, 8, shards)
			ctx := context.Background()
			masks := appendBatch(t, db, 6, 3)
			ids, err := db.Append(ctx, masks)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := db.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, full, 0.2, 1.0) > 50`)
			if err != nil {
				t.Fatal(err)
			}
			n, err := db.Compact(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n != 6 {
				t.Fatalf("compacted %d, want 6", n)
			}
			for i, id := range ids {
				if loc := db.MaskLocation(id); loc != "base" {
					t.Fatalf("mask %d location %q after compact", id, loc)
				}
				tail := db.ReadStats().TailLoads
				m, err := db.LoadMask(id)
				if err != nil {
					t.Fatal(err)
				}
				// A compacted mask is served by the base, never the tail.
				if got := db.ReadStats().TailLoads; got != tail {
					t.Fatalf("loading compacted mask %d counted %d tail loads", id, got-tail)
				}
				if !bytes.Equal(m.Bytes, masks[i].Pixels) {
					t.Fatalf("mask %d pixels differ after compact", id)
				}
			}
			if db.Shards() != shards+1 {
				t.Fatalf("shards after compact: %d, want %d", db.Shards(), shards+1)
			}
			res, err := db.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, full, 0.2, 1.0) > 50`)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.IDs, ref.IDs) {
				t.Fatalf("query after compact: %v, want %v", res.IDs, ref.IDs)
			}
			// The compacted dataset reopens cleanly with no WAL left.
			db.Close()
			db2, err := OpenWith(dir, Options{PersistIndexOnClose: false})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if st := db2.Stats().Ingest; st.ReplayedMasks != 0 || st.TailMasks != 0 {
				t.Fatalf("reopen after compact: ingest stats %+v", st)
			}
			res2, err := db2.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, full, 0.2, 1.0) > 50`)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res2.IDs, ref.IDs) {
				t.Fatalf("query after compact+reopen: %v, want %v", res2.IDs, ref.IDs)
			}
		})
	}
}

func TestAppendValidation(t *testing.T) {
	_, db := openIngestDB(t, 4, 1)
	ctx := context.Background()
	base := len(db.Entries())
	bad := appendBatch(t, db, 1, 4)
	bad[0].Pixels = bad[0].Pixels[:10]
	if _, err := db.Append(ctx, bad); err == nil {
		t.Fatal("append with short pixels succeeded")
	}
	if len(db.Entries()) != base {
		t.Fatalf("failed append left %d entries, want %d", len(db.Entries()), base)
	}
	// Appending after Close fails with ErrClosed.
	db.Close()
	if _, err := db.Append(ctx, appendBatch(t, db, 1, 5)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if _, err := db.Compact(ctx); err != ErrClosed {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
}
