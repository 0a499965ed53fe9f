package masksearch

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"masksearch/internal/store"
)

// TestCodecQueryEquivalence is the compressed-storage acceptance
// property: every plan kind, under every worker count, over the RLE
// layout (single-segment and sharded) returns results identical to the
// same dataset stored raw — the codec changes bytes on disk and which
// kernel variant runs, never a result. It reuses shardEquivQueries,
// which covers every plan kind the facade compiles.
func TestCodecQueryEquivalence(t *testing.T) {
	spec := TinyDataset()
	ctx := context.Background()

	rawDir := t.TempDir()
	if err := GenerateShardedDatasetCodec(rawDir, spec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ref, err := OpenWith(rawDir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if ref.Codec() != CodecRaw {
		t.Fatalf("raw dataset Codec() = %q, want %q", ref.Codec(), CodecRaw)
	}
	want := make([]*Result, len(shardEquivQueries))
	for i, q := range shardEquivQueries {
		if want[i], err = ref.Query(ctx, q); err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}

	layouts := []struct {
		name   string
		shards int
	}{{"single", 1}, {"sharded", 3}}
	for _, l := range layouts {
		dir := t.TempDir()
		if err := GenerateShardedDatasetCodec(dir, spec, l.shards, CodecRLE); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			db, err := OpenWith(dir, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if db.Codec() != CodecRLE {
				t.Fatalf("%s rle: Codec() = %q, want %q", l.name, db.Codec(), CodecRLE)
			}
			st := db.Stats()
			if st.Codec != CodecRLE {
				t.Fatalf("%s rle: Stats().Codec = %q, want %q", l.name, st.Codec, CodecRLE)
			}
			if st.StoredBytes <= 0 || st.StoredBytes >= st.Index.DataBytes {
				t.Fatalf("%s rle: StoredBytes %d not in (0, %d)", l.name, st.StoredBytes, st.Index.DataBytes)
			}
			for i, q := range shardEquivQueries {
				got, err := db.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s rle workers=%d query %d: %v", l.name, workers, i, err)
				}
				if got.Kind != want[i].Kind || !reflect.DeepEqual(got.IDs, want[i].IDs) ||
					!reflect.DeepEqual(got.Ranked, want[i].Ranked) {
					t.Fatalf("%s rle workers=%d query %d diverged from raw:\ngot  %+v\nwant %+v",
						l.name, workers, i, got, want[i])
				}
			}
			// The whole set again as one batch (the shared-load path).
			batch, err := db.QueryBatch(ctx, shardEquivQueries)
			if err != nil {
				t.Fatalf("%s rle workers=%d batch: %v", l.name, workers, err)
			}
			for i, got := range batch {
				if got.Kind != want[i].Kind || !reflect.DeepEqual(got.IDs, want[i].IDs) ||
					!reflect.DeepEqual(got.Ranked, want[i].Ranked) {
					t.Fatalf("%s rle workers=%d batch query %d diverged:\ngot  %+v\nwant %+v",
						l.name, workers, i, got, want[i])
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExplainReportsStorage pins that EXPLAIN names the compressed
// layout — and stays silent on the raw one, so the existing golden
// outputs hold.
func TestExplainReportsStorage(t *testing.T) {
	spec := TinyDataset()
	const q = `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`

	rawDir, rleDir := t.TempDir(), t.TempDir()
	if err := GenerateDataset(rawDir, spec); err != nil {
		t.Fatal(err)
	}
	if err := GenerateShardedDatasetCodec(rleDir, spec, 1, CodecRLE); err != nil {
		t.Fatal(err)
	}

	rawDB, err := Open(rawDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rawDB.Close()
	plan, err := rawDB.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "storage:") {
		t.Fatalf("raw EXPLAIN mentions storage:\n%s", plan)
	}

	rleDB, err := Open(rleDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rleDB.Close()
	plan, err = rleDB.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "storage: rle (compute-on-compressed)") {
		t.Fatalf("rle EXPLAIN missing storage line:\n%s", plan)
	}
}

// TestCompactCheckpointsIndex is the chi.idx-on-crash regression: the
// index used to persist only on a clean Close, so a crash after hours
// of ingestion rebuilt every CHI from scratch. Now Compact checkpoints
// the index through the atomic rename path; after a fault-injected
// crash the reopened database must load the checkpointed CHIs instead
// of starting empty.
func TestCompactCheckpointsIndex(t *testing.T) {
	spec := DatasetSpec{Name: "ckpt", Images: 6, Models: 1, W: 16, H: 16, Seed: 11}
	dir := t.TempDir()
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	batch := func(n int, seed byte) []AppendMask {
		out := make([]AppendMask, n)
		for i := range out {
			pix := make([]byte, spec.W*spec.H)
			for j := range pix {
				pix[j] = seed + byte(i) + byte(j%7)
			}
			out[i] = AppendMask{
				ImageID: int64(9000 + int(seed) + i), ModelID: 1,
				Object: Rect{X0: 1, Y0: 1, X1: spec.W - 1, Y1: spec.H - 1},
				Pixels: pix,
			}
		}
		return out
	}

	ctx := context.Background()
	ff := store.NewFaultFS(store.KeepAll)
	db, err := openWith(dir, Options{PersistIndexOnClose: true}, ff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(ctx, batch(3, 10)); err != nil {
		t.Fatal(err)
	}
	moved, err := db.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3 {
		t.Fatalf("compacted %d masks, want 3", moved)
	}
	// The compaction must have checkpointed the index durably.
	if _, err := os.Stat(filepath.Join(dir, store.IndexFileName)); err != nil {
		t.Fatalf("no %s after Compact: %v", store.IndexFileName, err)
	}
	// More appends after the checkpoint: indexed in memory, acknowledged
	// in the WAL, but their CHIs never persisted.
	if _, err := db.Append(ctx, batch(2, 60)); err != nil {
		t.Fatal(err)
	}
	// Crash: every later filesystem operation fails; the database is
	// abandoned without Close (which would persist the index cleanly
	// and mask the bug this test pins).
	ff.Crash()

	re, err := OpenWith(dir, Options{PersistIndexOnClose: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Immediately after a lazy open, the only indexed masks are those
	// loaded from the checkpointed chi.idx (the 3 compacted appends)
	// plus the WAL-replayed tail (2 masks) — the generated masks were
	// never queried, so nothing else can be in the index. Without the
	// Compact checkpoint there is no chi.idx at all and only the 2
	// replayed masks would be indexed.
	st, err := re.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexedMasks != 5 {
		t.Fatalf("reopened index has %d masks, want 5 (3 checkpointed + 2 replayed)", st.IndexedMasks)
	}
	// The recovered database still answers queries over all masks.
	res, err := re.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, full, 0.0, 1.0) >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != spec.NumMasks()+5 {
		t.Fatalf("recovered query returned %d masks, want %d", len(res.IDs), spec.NumMasks()+5)
	}
}

// TestCheckpointIndexExplicit covers the public entry point: dirty →
// persist → clean no-op.
func TestCheckpointIndexExplicit(t *testing.T) {
	spec := DatasetSpec{Name: "ckpt2", Images: 4, Models: 1, W: 16, H: 16, Seed: 3}
	dir := t.TempDir()
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, Options{EagerIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx := filepath.Join(dir, store.IndexFileName)
	if _, err := os.Stat(idx); err == nil {
		t.Fatal("chi.idx exists before any checkpoint")
	}
	if err := db.CheckpointIndex(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(idx)
	if err != nil {
		t.Fatalf("no chi.idx after CheckpointIndex: %v", err)
	}
	// A second checkpoint with nothing new must not rewrite the file.
	mt := fi.ModTime()
	if err := db.CheckpointIndex(); err != nil {
		t.Fatal(err)
	}
	if fi2, err := os.Stat(idx); err != nil || !fi2.ModTime().Equal(mt) {
		t.Fatalf("clean CheckpointIndex rewrote chi.idx (err %v)", err)
	}
}

// TestOpenOverMalformedIndex: an index file that holds an entry its
// config could not have built is dropped at open like one of another
// granularity: the DB starts an empty index, reports why it discarded
// the file, and answers exactly as before: here a chi.idx whose slot
// for mask 1 counts one pixel too many.
func TestOpenOverMalformedIndex(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateDataset(dir, TinyDataset()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	answers := func(db *DB) []Result {
		var out []Result
		for _, q := range []string{
			`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`,
			`SELECT image_id, MEAN(CP(mask, object, 0.8, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 25`,
		} {
			res, err := db.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, Result{Kind: res.Kind, IDs: res.IDs, Ranked: res.Ranked})
		}
		return out
	}
	db, err := OpenWith(dir, Options{EagerIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	want := answers(db)
	if err := db.CheckpointIndex(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, store.IndexFileName)
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(name, file string) {
		t.Helper()
		re, err := OpenWith(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		st, err := re.IndexStats()
		if err != nil || st.IndexedMasks != 0 {
			t.Fatalf("%s: malformed index restored %d masks (err %v), want an empty index", name, st.IndexedMasks, err)
		}
		if st.File != file || !strings.Contains(st.FileError, "mask 1:") {
			t.Fatalf("%s: index file %q discarded for %q, want %s discarded naming mask 1", name, st.File, st.FileError, file)
		}
		if got := answers(re); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: answers over a malformed index differ:\n got %+v\nwant %+v", name, got, want)
		}
	}

	// chi.idx: header (magic, version, cell size, k, k edges, W, H,
	// stride, pages), the presence bitmap, then page 0's slab, whose
	// first count is mask 1's first cell's area.
	k := int(binary.LittleEndian.Uint32(enc[20:]))
	pages := int(binary.LittleEndian.Uint32(enc[24+8*k+12:]))
	first := 24 + 8*k + 16 + pages*128
	bad := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(bad[first:], binary.LittleEndian.Uint32(bad[first:])+1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen("chi.idx", store.IndexFileName)
}

// TestQueryCorruptRLEMask damages one mask's stream in an rle dataset
// and checks the failure surfaces through the facade as the store's
// wrapped "corrupt rle stream" error — from a query that has to verify
// the damaged mask, and from an eager index build, which loads it at
// open — never as a panic, while a query over other masks still answers.
func TestQueryCorruptRLEMask(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 1, CodecRLE); err != nil {
		t.Fatal(err)
	}
	const bad = 7
	idx, err := os.ReadFile(filepath.Join(dir, "masks.rle.idx"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "masks.rle"), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// 255 opens a 129-pixel repeat run: wider than any row of the mask.
	if _, err := f.WriteAt([]byte{255}, int64(binary.LittleEndian.Uint64(idx[8*(bad-1):]))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := OpenWith(dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	_, err = db.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, full, 0.5, 1.0) > 10`)
	if err == nil || !strings.Contains(err.Error(), "corrupt rle stream") {
		t.Fatalf("query verifying the damaged mask: err = %v, want a corrupt rle stream error", err)
	}
	e, err := db.Entry(bad + 3)
	if err != nil {
		t.Fatal(err)
	}
	if e0, _ := db.Entry(bad); e0.ImageID == e.ImageID {
		t.Fatalf("masks %d and %d share image %d; pick another witness", bad, bad+3, e.ImageID)
	}
	res, err := db.Query(ctx, `SELECT mask_id FROM masks WHERE image_id = ? AND CP(mask, full, 0.0, 1.0) > 0`, e.ImageID)
	if err != nil || len(res.IDs) == 0 {
		t.Fatalf("query over undamaged masks: %d ids, err = %v", len(res.IDs), err)
	}

	if eager, err := OpenWith(dir, Options{EagerIndex: true}); err == nil {
		eager.Close()
		t.Fatal("eager index build accepted a corrupt rle stream")
	} else if !strings.Contains(err.Error(), "corrupt rle stream") {
		t.Fatalf("eager open: err = %v, want a corrupt rle stream error", err)
	}
}
