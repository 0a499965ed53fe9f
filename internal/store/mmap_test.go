package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"masksearch/internal/core"
)

// storedBytes reads, straight from the files and independently of any
// open store, what the layout at dir stores for mask id: the raw pixels,
// or under the rle codec the compressed stream.
func storedBytes(t *testing.T, dir string, id int64) []byte {
	t.Helper()
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	segDir, first, n := dir, int64(1), man.NumMasks
	for _, sh := range man.Shards {
		if id >= sh.FirstID && id < sh.FirstID+int64(sh.NumMasks) {
			segDir, first, n = filepath.Join(dir, sh.Dir), sh.FirstID, sh.NumMasks
		}
	}
	spec := man.Spec.withDefaults()
	if man.Codec != CodecRLE {
		all, err := os.ReadFile(filepath.Join(segDir, masksFile))
		if err != nil {
			t.Fatal(err)
		}
		n := int64(spec.W * spec.H)
		return all[(id-first)*n : (id-first+1)*n]
	}
	offs, err := readOffsets(filepath.Join(segDir, masksRLEIndexFile), n)
	if err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile(filepath.Join(segDir, masksRLEFile))
	if err != nil {
		t.Fatal(err)
	}
	return all[offs[id-first]:offs[id-first+1]]
}

// checkAgainstFiles compares every LoadMask result of st with the
// bytes os.ReadFile finds for the same masks.
func checkAgainstFiles(t *testing.T, dir string, st MaskStore, ids []int64) {
	t.Helper()
	for _, id := range ids {
		stored := storedBytes(t, dir, id)
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatalf("mask %d: %v", id, err)
		}
		got := m.Bytes
		if st.Codec() == CodecRLE {
			got = m.RLE
		}
		if !bytes.Equal(got, stored) {
			t.Fatalf("mask %d: LoadMask bytes differ from the file's", id)
		}
		if cap(got) != len(got) {
			t.Fatalf("mask %d: view has cap %d > len %d — it could be appended into the next mask", id, cap(got), len(got))
		}
		st.ReleaseMask(m)
	}
}

// layouts names the four base layouts the mapped-load tests cover.
var layouts = []struct {
	name   string
	codec  string
	shards int
}{
	{"raw", CodecRaw, 1}, {"rle", CodecRLE, 1},
	{"raw-sharded", CodecRaw, 3}, {"rle-sharded", CodecRLE, 3},
}

// TestMappedLoadsMatchFiles is the view path's oracle test: whatever
// LoadMask hands out equals the same byte range read with
// os.ReadFile, in all four layouts, before and after compactions that
// each map one more segment.
func TestMappedLoadsMatchFiles(t *testing.T) {
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := Spec{Name: "t", Images: 10, Models: 2, W: 24, H: 20, Seed: 21, HumanAttention: true}
			if err := Generate(dir, spec, lay.shards, lay.codec); err != nil {
				t.Fatal(err)
			}
			ws, cat, err := OpenIngest(DirFS(), dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			checkAgainstFiles(t, dir, ws, cat.MaskIDs(nil))
			for round := 0; round < 3; round++ {
				if _, err := ws.Append(context.Background(), ingestBatch(3+round, 24, 20, byte(40*round))); err != nil {
					t.Fatal(err)
				}
				if n, err := ws.Compact(context.Background()); err != nil || n != 3+round {
					t.Fatalf("compact %d: moved %d masks, err %v", round, n, err)
				}
				checkAgainstFiles(t, dir, ws, cat.MaskIDs(nil))
			}
			if n := ws.Base().NumShards(); n != lay.shards+3 {
				t.Fatalf("%d segments after 3 compactions, want %d", n, lay.shards+3)
			}
			// The first compaction, of a single-segment dataset too, added
			// the next shard-NNN/ directory.
			if _, err := os.Stat(filepath.Join(dir, ShardDirName(lay.shards), catalogBinFile)); err != nil {
				t.Fatalf("no segment directory %s after compaction: %v", ShardDirName(lay.shards), err)
			}
		})
	}
}

// TestMappedLoadsConcurrentWithCompaction is the -race stress: eight
// readers load and release random ids (cache off, tiny, unbounded)
// while a writer appends and compacts. Every CP must equal the oracle
// computed from known pixels, and a view taken before the compactions
// must still read the same bytes after them.
func TestMappedLoadsConcurrentWithCompaction(t *testing.T) {
	const w, h = 24, 20
	roi := core.Rect{X0: 3, Y0: 2, X1: 20, Y1: 17}
	vr := core.ValueRange{Lo: 0.25, Hi: 0.8}
	for _, lay := range layouts {
		for _, cache := range []int64{0, 3 * w * h, -1} {
			t.Run(fmt.Sprintf("%s/cache=%d", lay.name, cache), func(t *testing.T) {
				dir := t.TempDir()
				spec := Spec{Name: "t", Images: 12, Models: 1, W: w, H: h, Seed: 22}
				if err := Generate(dir, spec, lay.shards, lay.codec); err != nil {
					t.Fatal(err)
				}
				ws, cat, err := OpenIngest(DirFS(), dir)
				if err != nil {
					t.Fatal(err)
				}
				defer ws.Close()
				ws.SetCacheBytes(cache)

				// oracle[id] is the CP of mask id; known holds how many
				// ids have one (readers stay at or below it).
				const batches, per = 12, 3
				oracle := make([]int64, 1+12+batches*per)
				var known atomic.Int64
				for _, id := range cat.MaskIDs(nil) {
					m, err := ws.LoadMask(id)
					if err != nil {
						t.Fatal(err)
					}
					oracle[id] = core.ExactCP(m, roi, vr)
					ws.ReleaseMask(m)
				}
				known.Store(12)

				held, err := ws.LoadMask(5) // a view that must survive every compaction
				if err != nil {
					t.Fatal(err)
				}
				heldBytes := append(append([]byte(nil), held.Bytes...), held.RLE...)

				var wg sync.WaitGroup
				done := make(chan struct{})
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(g)))
						for {
							select {
							case <-done:
								return
							default:
							}
							id := 1 + rng.Int63n(known.Load())
							m, err := ws.LoadMask(id)
							if err != nil {
								t.Errorf("load %d: %v", id, err)
								return
							}
							if got := core.ExactCP(m, roi, vr); got != oracle[id] {
								t.Errorf("mask %d: CP %d, oracle %d", id, got, oracle[id])
							}
							ws.ReleaseMask(m)
						}
					}(g)
				}
				// The writer reports instead of t.Fatal-ing: the readers must
				// be stopped before the deferred Close unmaps under them.
				writer := func() error {
					for b := 0; b < batches; b++ {
						batch := ingestBatch(per, w, h, byte(17*b))
						ids, err := ws.Append(context.Background(), batch)
						if err != nil {
							return err
						}
						for i, id := range ids {
							oracle[id] = core.ExactCP(&core.Mask{W: w, H: h, Bytes: batch[i].Pix}, roi, vr)
						}
						known.Store(ids[len(ids)-1])
						if b%3 == 2 {
							if _, err := ws.Compact(context.Background()); err != nil {
								return err
							}
						}
					}
					return nil
				}
				werr := writer()
				close(done)
				wg.Wait()
				if werr != nil {
					t.Fatal(werr)
				}
				if !bytes.Equal(append(append([]byte(nil), held.Bytes...), held.RLE...), heldBytes) {
					t.Fatal("a view taken before the compactions reads different bytes after them")
				}
				ws.ReleaseMask(held)
			})
		}
	}
}

// TestLoadSteadyStateAllocs checks that a load+release reuses a pooled
// header and allocates nothing (one allocation of slack for a pool
// refill after a GC cycle): with the cache off, of a raw mask and of a
// WAL tail mask; with a cache, of a miss that evicts and of a hit.
// TestRLELoadSteadyStateAllocs is the rle case.
func TestLoadSteadyStateAllocs(t *testing.T) {
	_, ws, _ := openIngestTiny(t, 1)
	ids, err := ws.Append(context.Background(), ingestBatch(4, 16, 16, 9))
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]int64{"raw": 3, "wal-tail": ids[1]} {
		load := func() {
			m, err := ws.LoadMask(id)
			if err != nil {
				t.Fatal(err)
			}
			ws.ReleaseMask(m)
		}
		load()
		if avg := testing.AllocsPerRun(200, load); avg > 1 {
			t.Errorf("%s: steady-state LoadMask+ReleaseMask allocates %.1f times per call, want <= 1", name, avg)
		}
	}
	if s := ws.Stats(); s.TailLoads != 202 {
		t.Fatalf("TailLoads %d, want 202: every tail load still counts", s.TailLoads)
	}
	// A two-mask budget over a cycle of four ids misses and evicts on
	// every load; an unbounded cache over one id hits on every load.
	for _, tc := range []struct {
		name  string
		cache int64
		ids   []int64
	}{
		{"evicting-cache", 2 * 16 * 16, []int64{1, 2, 3, 4}},
		{"unbounded-hit", -1, []int64{5}},
	} {
		ws.SetCacheBytes(tc.cache)
		k := 0
		load := func() {
			m, err := ws.LoadMask(tc.ids[k%len(tc.ids)])
			if err != nil {
				t.Fatal(err)
			}
			k++
			ws.ReleaseMask(m)
		}
		for range tc.ids {
			load() // grow the slot table, fill the cache
		}
		before := ws.Stats()
		if avg := testing.AllocsPerRun(200, load); avg > 1 {
			t.Errorf("%s: steady-state LoadMask+ReleaseMask allocates %.1f times per call, want <= 1", tc.name, avg)
		}
		want := ReadStats{CacheHits: 201} // AllocsPerRun's warm-up call + 200
		if tc.cache > 0 {
			want = ReadStats{MasksLoaded: 201, BytesRead: 201 * 16 * 16, CacheMisses: 201, CacheEvicted: 201}
		}
		if s := ws.Stats().Sub(before); s != want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, s, want)
		}
	}
	ws.SetCacheBytes(0)
}

// TestReadStatsUnchangedByMapping replays one fixed load sequence under
// every store configuration and compares the counters with the numbers
// the pread-based store of the parent commit produced for it: mapping
// the file must not change what a load is charged.
func TestReadStatsUnchangedByMapping(t *testing.T) {
	spec := Spec{Name: "t", Images: 12, Models: 2, W: 24, H: 20, Seed: 23, HumanAttention: true}
	seq := []int64{1, 2, 3, 1, 9, 17, 24, 2, 3, 4, 5, 6, 7, 8, 1, 24, 23, 9, 9, 12}
	want := map[string]ReadStats{
		"raw/cache=0":            {MasksLoaded: 20, BytesRead: 9600},
		"raw/cache=2000":         {MasksLoaded: 18, BytesRead: 8640, CacheHits: 2, CacheMisses: 18, CacheEvicted: 14},
		"raw/cache=-1":           {MasksLoaded: 13, BytesRead: 6240, CacheHits: 7, CacheMisses: 13},
		"rle/cache=0":            {MasksLoaded: 20, BytesRead: 7373},
		"rle/cache=2000":         {MasksLoaded: 18, BytesRead: 6594, CacheHits: 2, CacheMisses: 18, CacheEvicted: 13},
		"rle/cache=-1":           {MasksLoaded: 13, BytesRead: 4722, CacheHits: 7, CacheMisses: 13},
		"raw-sharded/cache=0":    {MasksLoaded: 20, BytesRead: 9600},
		"raw-sharded/cache=2000": {MasksLoaded: 18, BytesRead: 8640, CacheHits: 2, CacheMisses: 18, CacheEvicted: 16},
		"raw-sharded/cache=-1":   {MasksLoaded: 13, BytesRead: 6240, CacheHits: 7, CacheMisses: 13},
		"rle-sharded/cache=0":    {MasksLoaded: 20, BytesRead: 7373},
		"rle-sharded/cache=2000": {MasksLoaded: 18, BytesRead: 6661, CacheHits: 2, CacheMisses: 18, CacheEvicted: 16},
		"rle-sharded/cache=-1":   {MasksLoaded: 13, BytesRead: 4722, CacheHits: 7, CacheMisses: 13},
	}
	for _, lay := range layouts {
		dir := t.TempDir()
		if err := Generate(dir, spec, lay.shards, lay.codec); err != nil {
			t.Fatal(err)
		}
		for _, cache := range []int64{0, 2000, -1} {
			name := fmt.Sprintf("%s/cache=%d", lay.name, cache)
			st, _, err := OpenAny(dir)
			if err != nil {
				t.Fatal(err)
			}
			st.SetCacheBytes(cache)
			before := st.Stats()
			for _, id := range seq {
				m, err := st.LoadMask(id)
				if err != nil {
					t.Fatal(err)
				}
				st.ReleaseMask(m)
			}
			got := st.Stats().Sub(before)
			st.Close()
			if got != want[name] {
				t.Errorf("%s: stats %+v, parent commit counted %+v", name, got, want[name])
			}
		}
	}
}

// mappingCount counts the process's memory mappings.
func mappingCount(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// TestCloseUnmaps opens and closes stores of every layout 200 times,
// once with a compaction segment added, and checks the process's
// mapping count does not grow with it: Close must unmap every segment.
func TestCloseUnmaps(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	for _, lay := range layouts {
		dir := t.TempDir()
		spec := Spec{Name: "t", Images: 6, Models: 1, W: 24, H: 20, Seed: 24}
		if err := Generate(dir, spec, lay.shards, lay.codec); err != nil {
			t.Fatal(err)
		}
		cycle := func(compact bool) {
			ws, _, err := OpenIngest(DirFS(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if compact {
				if _, err := ws.Append(context.Background(), ingestBatch(2, 24, 20, 1)); err != nil {
					t.Fatal(err)
				}
				if _, err := ws.Compact(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			m, err := ws.LoadMask(int64(ws.NumMasks()))
			if err != nil {
				t.Fatal(err)
			}
			ws.ReleaseMask(m)
			if err := ws.Close(); err != nil {
				t.Fatal(err)
			}
		}
		cycle(true) // warm up: runtime arenas, pools
		before := mappingCount(t)
		for i := 0; i < 200; i++ {
			cycle(i == 100)
		}
		// Slack for mappings the Go runtime itself adds meanwhile; a
		// leak would add at least one per cycle.
		if after := mappingCount(t); after > before+20 {
			t.Errorf("%s: %d mappings before 200 open/close cycles, %d after — Close leaks mappings", lay.name, before, after)
		}
	}
}
