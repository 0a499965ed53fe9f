package masksearch

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Datasets written before catalog.bin keep each segment's catalog in a
// catalog.json. Read-only opens read it in memory and write nothing; an
// ingest open migrates it to catalog.bin once. These tests hold both
// paths to the answers of a freshly generated dataset, and the migration
// to the crash contract.

// segmentDirs lists the segment directories of the database at dir —
// dir itself, or its shard directories — with each one's first id and
// row count.
func segmentDirs(t *testing.T, dir string) []store.ShardInfo {
	t.Helper()
	man, err := store.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) == 0 {
		return []store.ShardInfo{{Dir: dir, FirstID: 1, NumMasks: man.NumMasks}}
	}
	for i := range man.Shards {
		man.Shards[i].Dir = filepath.Join(dir, man.Shards[i].Dir)
	}
	return man.Shards
}

// writeLegacyDataset generates spec into dir and rewrites it in the
// format that preceded catalog.bin: each segment's rows as an indented
// catalog.json, and no catalog.bin.
func writeLegacyDataset(t *testing.T, dir string, spec DatasetSpec, shards int) {
	t.Helper()
	if err := GenerateShardedDatasetCodec(dir, spec, shards, CodecRaw); err != nil {
		t.Fatal(err)
	}
	entries := storeRows(t, dir)
	for _, seg := range segmentDirs(t, dir) {
		b, err := json.MarshalIndent(entries[seg.FirstID-1:seg.FirstID-1+int64(seg.NumMasks)], "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(seg.Dir, "catalog.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(seg.Dir, "catalog.bin")); err != nil {
			t.Fatal(err)
		}
	}
}

// storeRows returns the catalog a read-only store.OpenAny reads at dir.
func storeRows(t *testing.T, dir string) []store.Entry {
	t.Helper()
	st, cat, err := store.OpenAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return cat.Entries()
}

// catalogFiles reports which catalog files every segment of dir holds:
// "json", "bin", "both" or "none" per segment.
func catalogFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, seg := range segmentDirs(t, dir) {
		_, jerr := os.Stat(filepath.Join(seg.Dir, "catalog.json"))
		_, berr := os.Stat(filepath.Join(seg.Dir, "catalog.bin"))
		out = append(out, map[[2]bool]string{
			{true, false}: "json", {false, true}: "bin", {true, true}: "both", {false, false}: "none",
		}[[2]bool{jerr == nil, berr == nil}])
	}
	return out
}

func allOf(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestLegacyCatalogEquivalence: a legacy dataset, single and sharded,
// answers every plan kind byte-identically to a freshly generated one —
// read-only, through a shard node over store.OpenAny (which must leave
// the JSON in place), and after an ingest open migrated it.
func TestLegacyCatalogEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fresh, legacy := t.TempDir(), t.TempDir()
			if err := GenerateShardedDatasetCodec(fresh, TinyDataset(), shards, CodecRaw); err != nil {
				t.Fatal(err)
			}
			writeLegacyDataset(t, legacy, TinyDataset(), shards)
			ref, err := OpenWith(fresh, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			check := func(stage string, db *DB) {
				t.Helper()
				for i, q := range shardEquivQueries {
					got, err := db.Query(ctx, q)
					if err != nil {
						t.Fatalf("%s query %d: %v", stage, i, err)
					}
					want, err := ref.Query(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(got, want) {
						t.Fatalf("%s query %d diverged:\ngot  %+v\nwant %+v", stage, i, got, want)
					}
				}
			}

			if got := storeRows(t, legacy); !reflect.DeepEqual(got, ref.Entries()) {
				t.Fatal("read-only open of the legacy catalog returns other rows than a fresh dataset")
			}
			node := startTestNode(t, legacy, "a", nil)
			routes := make([][]string, shards)
			for i := range routes {
				routes[i] = []string{"a"}
			}
			coord, err := OpenWith(fresh, Options{TopologyFile: writeTopology(t, map[string]*testNode{"a": node}, routes)})
			if err != nil {
				t.Fatal(err)
			}
			check("read-only legacy node", coord)
			coord.Close()
			if got := catalogFiles(t, legacy); !reflect.DeepEqual(got, allOf("json", shards)) {
				t.Fatalf("catalog files after read-only opens: %v, want only the legacy JSON", got)
			}

			db, err := OpenWith(legacy, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := catalogFiles(t, legacy); !reflect.DeepEqual(got, allOf("bin", shards)) {
				t.Fatalf("catalog files after an ingest open: %v, want catalog.bin only", got)
			}
			if !reflect.DeepEqual(db.Entries(), ref.Entries()) {
				t.Fatal("migrated catalog differs from a fresh dataset's")
			}
			check("migrated", db)
		})
	}
}

// TestLegacyMigrationCrash crashes the migrating ingest open at every
// filesystem operation under each keep policy: every segment keeps a
// catalog file, a read-only open finds the original rows in whichever
// one is authoritative, and the next ingest open completes the
// migration with the same rows.
func TestLegacyMigrationCrash(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pristine := t.TempDir()
			writeLegacyDataset(t, pristine, faultSpec(), shards)
			want := storeRows(t, pristine)
			migrate := func(dir string, fsys store.FS) {
				if ws, _, err := store.OpenIngest(fsys, dir); err == nil {
					ws.Close()
				}
			}
			clean := t.TempDir()
			copyTree(t, pristine, clean)
			ffClean := store.NewFaultFS(store.KeepAll)
			migrate(clean, ffClean)
			nOps := ffClean.Ops()
			if got := catalogFiles(t, clean); !reflect.DeepEqual(got, allOf("bin", shards)) {
				t.Fatalf("clean migration left catalog files %v", got)
			}

			for _, pol := range []store.KeepPolicy{store.KeepNone, store.KeepHalf, store.KeepAll} {
				for crashAt := 0; crashAt < nOps; crashAt++ {
					dir := t.TempDir()
					copyTree(t, pristine, dir)
					ff := store.NewFaultFS(pol)
					ff.SetCrashAt(crashAt)
					migrate(dir, ff)
					if !ff.Crashed() {
						t.Fatalf("%v crashAt=%d: migration finished without reaching the crash point", pol, crashAt)
					}
					for i, f := range catalogFiles(t, dir) {
						if f == "none" {
							t.Fatalf("%v crashAt=%d: segment %d lost its catalog", pol, crashAt, i)
						}
					}
					if got := storeRows(t, dir); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v crashAt=%d: read-only open after the crash reads other rows", pol, crashAt)
					}
					ws, cat, err := store.OpenIngest(store.DirFS(), dir)
					if err != nil {
						t.Fatalf("%v crashAt=%d: reopen: %v", pol, crashAt, err)
					}
					got := cat.Entries()
					ws.Close()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v crashAt=%d: migrated rows differ from the legacy catalog's", pol, crashAt)
					}
					if files := catalogFiles(t, dir); !reflect.DeepEqual(files, allOf("bin", shards)) {
						t.Fatalf("%v crashAt=%d: catalog files after reopen: %v", pol, crashAt, files)
					}
				}
			}
		})
	}
}

// TestLegacyIndexMigrates: a dataset whose index an older version
// persisted as a gob chi.gob opens with that index restored (msinspect
// names it), answers as with no index at all, and its next persist
// writes chi.idx and removes chi.gob, after which opens read chi.idx.
func TestLegacyIndexMigrates(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateDataset(dir, TinyDataset()); err != nil {
		t.Fatal(err)
	}
	q := `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`
	bare, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	bare.Close()

	// The gob envelope older versions wrote, over every mask at the
	// facade's default granularity.
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{CellW: st.MaskW() / 4, CellH: st.MaskH() / 4, Edges: core.DefaultEdges(10)}
	file := struct {
		Cfg  core.Config
		Chis map[int64]*core.CHI
	}{Cfg: cfg, Chis: map[int64]*core.CHI{}}
	for id := int64(1); id <= int64(st.NumMasks()); id++ {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if file.Chis[id], err = core.Build(m, cfg); err != nil {
			t.Fatal(err)
		}
		st.ReleaseMask(m)
	}
	st.Close()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(file); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, store.LegacyIndexFileName)
	if err := os.WriteFile(legacy, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ file string }{{store.LegacyIndexFileName}, {store.IndexFileName}} {
		db, err := OpenWith(dir, Options{PersistIndexOnClose: true})
		if err != nil {
			t.Fatal(err)
		}
		is, _ := db.IndexStats()
		if is.File != tc.file || is.FileError != "" || is.FileEntries != len(file.Chis) {
			t.Fatalf("opened with index file %q (%d entries, error %q), want %s with %d", is.File, is.FileEntries, is.FileError, tc.file, len(file.Chis))
		}
		got, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) || got.Stats.Loaded >= want.Stats.Loaded {
			t.Fatalf("over %s: ids %v loading %d, want %v loading fewer than %d", tc.file, got.IDs, got.Stats.Loaded, want.IDs, want.Stats.Loaded)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(legacy); !os.IsNotExist(err) {
			t.Fatalf("%s still present after a persist (err %v)", store.LegacyIndexFileName, err)
		}
	}
}
