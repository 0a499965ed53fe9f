package store

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// dirDigest hashes every file under dir, by relative path and content.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s %x\n", filepath.ToSlash(rel), sha256.Sum256(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateBytesUnchanged pins the generator's output, file by file,
// to the bytes the four-entry-point generator of GenVersion 3 wrote for
// the same spec, with the manifests recording GenVersion 4 (the index
// file's rename, which changes no generated byte but the version).
func TestGenerateBytesUnchanged(t *testing.T) {
	if GenVersion != 4 {
		t.Fatalf("GenVersion %d: regenerate these digests", GenVersion)
	}
	for _, tc := range []struct {
		codec  string
		shards int
		digest string
	}{
		{CodecRaw, 1, "508c08c454af4eb5d1d16eae95f5b24bb910745a7e0fab845665c012fd20aa40"},
		{CodecRaw, 2, "5ca104febf9140047b6c66f0e1dbad02d8a0fbdf0ebba64a8f0b570f4d62a803"},
		{CodecRaw, 4, "e4ee6795f72bac1c2c239a43da5ff7154443d9414743b3a4e5996c5d7c960d2c"},
		{CodecRLE, 1, "b093aba1d3fed12d9e6ab314243339c8c78da0b65ccaa22deec73d6c374bdd1f"},
		{CodecRLE, 2, "ae31000928958dee921fa9b21faf952acb3a4625da6c69bab126d23f7b74b0b1"},
		{CodecRLE, 4, "3ec554939cdb621494ebac3605b3bb63a01e910adc6061eaf3ef8bc118b778c7"},
	} {
		dir := t.TempDir()
		if err := Generate(dir, shardSpec, tc.shards, tc.codec); err != nil {
			t.Fatal(err)
		}
		if got := dirDigest(t, dir); got != tc.digest {
			t.Errorf("codec %q, %d shards: generated files digest to %s, want %s", tc.codec, tc.shards, got, tc.digest)
		}
	}
}

// fdCount counts the process's open file descriptors.
func fdCount(t *testing.T) int {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}

// TestCompactionHoldsNoFDs compacts a 2-shard ingest store 200 times
// and checks the process's descriptor count stays flat: a segment keeps
// its mapping, never its file.
func TestCompactionHoldsNoFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/fd")
	}
	_, ws, _ := openIngestTiny(t, 2)
	round := func(i int) {
		if _, err := ws.Append(context.Background(), ingestBatch(1, 16, 16, byte(i))); err != nil {
			t.Fatal(err)
		}
		if n, err := ws.Compact(context.Background()); err != nil || n != 1 {
			t.Fatalf("compaction %d: moved %d masks, err %v", i, n, err)
		}
	}
	round(0) // warm up: the runtime's poller, the first WAL segment
	before := fdCount(t)
	for i := 1; i <= 200; i++ {
		round(i)
	}
	// Slack for descriptors the runtime itself opens meanwhile; a leak
	// adds one per compaction.
	if after := fdCount(t); after > before+2 {
		t.Fatalf("%d descriptors before 200 compactions, %d after — segments hold files open", before, after)
	}
	if n := ws.Base().NumShards(); n != 2+201 {
		t.Fatalf("%d segments after 201 compactions, want %d", n, 2+201)
	}
}

// FuzzManifest feeds arbitrary manifest.json bytes to Open over a tiny
// 2-shard dataset. Open must fail, or return a store whose segments are
// contiguous from id 1 and cover NumMasks, each loadable at both ends;
// it must never panic.
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	if err := Generate(dir, Spec{Name: "f", Images: 3, Models: 1, W: 8, H: 8, Seed: 4}, 2, CodecRaw); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	orig, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(orig)
	var man Manifest
	if err := json.Unmarshal(orig, &man); err != nil {
		f.Fatal(err)
	}
	for _, mutate := range []func(m *Manifest){
		func(m *Manifest) { m.Shards = nil },
		func(m *Manifest) { m.Shards[0], m.Shards[1] = m.Shards[1], m.Shards[0] },
		func(m *Manifest) { m.Shards[1].FirstID-- },
		func(m *Manifest) { m.Shards[0].NumMasks = -1 },
		func(m *Manifest) { m.Shards[1].Dir = "." },
		func(m *Manifest) { m.Shards = m.Shards[:1]; m.NumMasks = m.Shards[0].NumMasks },
		func(m *Manifest) { m.Spec.W = 1 << 40 },
		func(m *Manifest) { m.Codec = CodecRLE },
	} {
		m := man
		m.Shards = append([]ShardInfo(nil), man.Shards...)
		mutate(&m)
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, cat, err := Open(dir)
		if err != nil {
			return
		}
		defer st.Close()
		var got Manifest
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("Open accepted a manifest json cannot decode: %v", err)
		}
		next := int64(1)
		for i, g := range st.set.Load().segs {
			if g.first != next || g.n < 0 {
				t.Fatalf("segment %d holds %d masks from id %d, want them from %d", i, g.n, g.first, next)
			}
			for _, id := range []int64{g.first, g.first + int64(g.n) - 1} {
				if id < g.first {
					continue
				}
				m, err := st.LoadMask(id)
				if err != nil {
					t.Fatalf("segment %d: mask %d: %v", i, id, err)
				}
				st.ReleaseMask(m)
			}
			next += int64(g.n)
		}
		if n := next - 1; n != int64(got.NumMasks) || n != int64(st.NumMasks()) || n != int64(cat.Len()) {
			t.Fatalf("segments cover %d masks, manifest says %d, store %d, catalog %d", n, got.NumMasks, st.NumMasks(), cat.Len())
		}
	})
}
