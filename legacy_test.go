package masksearch

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// dirState maps every path under dir to its content, "/" for a
// directory.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		out[p] = "/"
		if err == nil && !d.IsDir() {
			b, rerr := os.ReadFile(p)
			out[p], err = string(b), rerr
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLegacyArtifacts opens what earlier versions left in a database
// directory, whose every file has one reader, of the current format. A
// segment with a catalog.json and no catalog.bin, or a top-level segment
// longer than its manifest by a whole row or a torn one (a crashed
// in-place compaction), fails every open with an error naming
// catalog.bin and changes nothing. A chi.gob is ignored as if absent:
// the index starts empty, answers equal a fresh open's, and a persist
// writes chi.idx beside the untouched chi.gob.
func TestLegacyArtifacts(t *testing.T) {
	fsys := store.DirFS()
	opens := map[string]func(dir string) (io.Closer, error){
		"store.Open":       func(dir string) (io.Closer, error) { st, _, err := store.Open(dir); return st, err },
		"store.OpenIngest": func(dir string) (io.Closer, error) { ws, _, err := store.OpenIngest(fsys, dir); return ws, err },
		"OpenWith":         func(dir string) (io.Closer, error) { return OpenWith(dir, Options{PersistIndexOnClose: true}) },
	}
	// refused fails unless every open of dir fails naming each of want
	// and leaves dir as it was.
	refused := func(t *testing.T, dir string, want ...string) {
		t.Helper()
		before := dirState(t, dir)
		for name, open := range opens {
			c, err := open(dir)
			if err == nil {
				c.Close()
			}
			for _, w := range want {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Errorf("%s: err = %v, want one naming %q", name, err, w)
				}
			}
			if !reflect.DeepEqual(dirState(t, dir), before) {
				t.Fatalf("%s changed the database directory", name)
			}
		}
	}

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("catalog.json/shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			if err := GenerateShardedDatasetCodec(dir, TinyDataset(), shards, CodecRaw); err != nil {
				t.Fatal(err)
			}
			// The last segment's rows as the catalog.json that preceded
			// catalog.bin held them.
			st, cat, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			seg, rows := dir, cat.Entries()
			if man, err := store.LoadManifest(dir); err != nil {
				t.Fatal(err)
			} else if shards > 1 {
				last := man.Shards[shards-1]
				seg, rows = filepath.Join(dir, last.Dir), rows[last.FirstID-1:]
			}
			b, err := json.MarshalIndent(rows, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(seg, "catalog.json"), b, 0o644)
			}
			if err == nil {
				err = os.Remove(filepath.Join(seg, "catalog.bin"))
			}
			if err != nil {
				t.Fatal(err)
			}
			refused(t, dir, filepath.Join(seg, "catalog.bin"), "regenerate")
		})
	}

	t.Run("chi.gob", func(t *testing.T) {
		dir := t.TempDir()
		if err := GenerateDataset(dir, TinyDataset()); err != nil {
			t.Fatal(err)
		}
		fresh, err := OpenWith(dir, Options{EagerIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		want := runSuite(t, fresh)
		// The fresh index in the gob envelope earlier versions wrote.
		chis := map[int64]*core.CHI{}
		for id := int64(1); id <= int64(fresh.idx.Len()); id++ {
			chis[id], _ = fresh.idx.ChiFor(id)
		}
		var legacy bytes.Buffer
		err = gob.NewEncoder(&legacy).Encode(struct {
			Cfg  core.Config
			Chis map[int64]*core.CHI
		}{fresh.idx.Config(), chis})
		fresh.Close()
		gobPath := filepath.Join(dir, "chi.gob")
		if err == nil {
			err = os.WriteFile(gobPath, legacy.Bytes(), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}

		db, err := OpenWith(dir, Options{PersistIndexOnClose: true})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := db.IndexStats(); err != nil || st.File != "" || st.FileError != "" || st.IndexedMasks != 0 {
			t.Fatalf("open over a chi.gob: index stats %+v (err %v), want no file read and an empty index", st, err)
		}
		for i, got := range runSuite(t, db) {
			if !sameResult(got, want[i]) {
				t.Fatalf("query %d over a chi.gob: %+v, want a fresh open's %+v", i, got, want[i])
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		_, ierr := os.Stat(filepath.Join(dir, store.IndexFileName))
		if got, err := os.ReadFile(gobPath); ierr != nil || err != nil || !bytes.Equal(got, legacy.Bytes()) {
			t.Fatalf("after close: chi.idx %v; chi.gob %d bytes (err %v), want chi.idx written and chi.gob's %d bytes as they were",
				ierr, len(got), err, legacy.Len())
		}
	})

	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("over-long top segment/torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			if err := GenerateDataset(dir, TinyDataset()); err != nil {
				t.Fatal(err)
			}
			// An ingest open leaves the WAL directory recovery looks for.
			if db, err := opens["OpenWith"](dir); err != nil || db.Close() != nil {
				t.Fatal(err)
			}
			spec := TinyDataset()
			for name, n := range map[string]int{"masks.bin": spec.W * spec.H, "catalog.bin": store.CatalogRowSize} {
				if torn {
					n /= 2
				}
				path := filepath.Join(dir, name)
				b, err := os.ReadFile(path)
				if err == nil {
					err = os.WriteFile(path, append(b, bytes.Repeat([]byte{0xA5}, n)...), 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			refused(t, dir, "catalog.bin holds", fmt.Sprintf("manifest says %d masks", spec.NumMasks()))
		})
	}
}
