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
// the same spec, so every dataset generated before stays current.
func TestGenerateBytesUnchanged(t *testing.T) {
	if GenVersion != 3 {
		t.Fatalf("GenVersion %d: regenerate these digests", GenVersion)
	}
	for _, tc := range []struct {
		codec  string
		shards int
		digest string
	}{
		{CodecRaw, 1, "2d6cd67a08d10c2d5f583902f3fd2f00f7da2d7fd12516deebcf62ea50566111"},
		{CodecRaw, 2, "367ccb0e830fb0c3d574c031da2589f3443356bd12e5fbd27bb73b80f839202c"},
		{CodecRaw, 4, "b052090ab03250a494d052d13996f85fa1b718809b2338a99809922bb2b9dd52"},
		{CodecRLE, 1, "bc01a69e0921c12ae35470bf1f8e48c07f444c13804b1229c2d1a8d80313f5b1"},
		{CodecRLE, 2, "05b6eb12ab6a8e3dbbbc4abf70c1ee6916f27ee086655a19df3a5274aeb637f2"},
		{CodecRLE, 4, "b71d3117ce88d831711d53e737e97d59bba32fa8c87ad9f1ceb6292d57b133e3"},
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
