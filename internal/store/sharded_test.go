package store

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var shardSpec = Spec{Name: "sh", Images: 12, Models: 2, W: 16, H: 16, Seed: 9, HumanAttention: true} // 36 masks

// genShardPair generates the same spec unsharded and S-sharded.
func genShardPair(t *testing.T, s int) (flatDir, shardDir string) {
	t.Helper()
	flatDir, shardDir = t.TempDir(), t.TempDir()
	if err := Generate(flatDir, shardSpec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if err := Generate(shardDir, shardSpec, s, CodecRaw); err != nil {
		t.Fatal(err)
	}
	return flatDir, shardDir
}

// TestShardedGenerateIsStorageOnly pins the central sharding
// invariant: catalog rows, mask ids and every pixel are byte-identical
// between the unsharded and sharded layouts — only the file layout
// differs.
func TestShardedGenerateIsStorageOnly(t *testing.T) {
	for _, s := range []int{2, 3, 4} {
		flatDir, shardDir := genShardPair(t, s)
		flat, flatCat, err := Open(flatDir)
		if err != nil {
			t.Fatal(err)
		}
		defer flat.Close()
		st, cat, err := OpenAny(shardDir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ss := st
		if ss.NumShards() != s {
			t.Fatalf("NumShards = %d, want %d", ss.NumShards(), s)
		}
		if ss.NumMasks() != flat.NumMasks() || ss.DataBytes() != flat.DataBytes() ||
			ss.MaskW() != flat.MaskW() || ss.MaskH() != flat.MaskH() {
			t.Fatalf("sharded geometry differs from flat")
		}
		if len(cat.Entries()) != len(flatCat.Entries()) {
			t.Fatalf("catalog sizes differ: %d vs %d", len(cat.Entries()), len(flatCat.Entries()))
		}
		for i, e := range cat.Entries() {
			if e != flatCat.Entries()[i] {
				t.Fatalf("catalog row %d differs: %+v vs %+v", i, e, flatCat.Entries()[i])
			}
		}
		for id := int64(1); id <= int64(flat.NumMasks()); id++ {
			a, err := flat.LoadMask(id)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ss.LoadMask(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Bytes {
				if a.Bytes[i] != b.Bytes[i] {
					t.Fatalf("%d shards: mask %d pixel %d differs", s, id, i)
				}
			}
			ss.ReleaseMask(b)
			flat.ReleaseMask(a)
		}
	}
}

// TestShardedIDRouting checks boundary ids land on the right shards
// and out-of-range ids fail like the flat store.
func TestShardedIDRouting(t *testing.T) {
	_, shardDir := genShardPair(t, 3)
	ss, _, err := Open(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	// 36 masks over 3 shards: 12 each.
	for _, tc := range []struct {
		id    int64
		shard int
	}{
		{1, 0}, {12, 0}, {13, 1}, {24, 1}, {25, 2}, {36, 2},
	} {
		if got := ss.ShardOf(tc.id); got != tc.shard {
			t.Fatalf("ShardOf(%d) = %d, want %d", tc.id, got, tc.shard)
		}
	}
	if _, err := ss.LoadMask(0); err == nil {
		t.Fatal("id 0 should fail")
	}
	if _, err := ss.LoadMask(37); err == nil {
		t.Fatal("id beyond the dataset should fail")
	}
}

// TestShardedStatsAggregate pins Stats to the exact sum of the
// per-shard counters, and a second round of loads to showing up
// exactly in the difference of two snapshots.
func TestShardedStatsAggregate(t *testing.T) {
	_, shardDir := genShardPair(t, 3)
	ss, _, err := Open(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, id := range []int64{1, 2, 13, 25, 26, 27} {
		if _, err := ss.LoadMask(id); err != nil {
			t.Fatal(err)
		}
	}
	per := ss.ShardStats()
	if len(per) != 3 {
		t.Fatalf("ShardStats returned %d entries, want 3", len(per))
	}
	var sum ReadStats
	for _, s := range per {
		sum.Add(s)
	}
	if got := ss.Stats(); got != sum {
		t.Fatalf("aggregate stats %+v != per-shard sum %+v", got, sum)
	}
	if per[0].MasksLoaded != 2 || per[1].MasksLoaded != 1 || per[2].MasksLoaded != 3 {
		t.Fatalf("per-shard loads %v, want [2 1 3]", per)
	}
	first := ss.Stats()
	for _, id := range []int64{3, 14, 27} {
		if _, err := ss.LoadMask(id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ss.Stats().Sub(first), (ReadStats{MasksLoaded: 3, BytesRead: 3 * 16 * 16}); got != want {
		t.Fatalf("second round: stats delta %+v, want %+v", got, want)
	}
}

// TestShardedCacheArenas checks that each shard's cache arena serves
// its own ids (hits across distinct shards) and that releases of
// cache-resident masks unpin in the owning arena.
func TestShardedCacheArenas(t *testing.T) {
	_, shardDir := genShardPair(t, 3)
	ss, _, err := Open(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ss.SetCacheBytes(-1)
	if ss.CacheBytes() != -1 {
		t.Fatalf("CacheBytes = %d, want -1", ss.CacheBytes())
	}
	for _, id := range []int64{1, 13, 25} {
		m, err := ss.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		ss.ReleaseMask(m)
	}
	for _, id := range []int64{1, 13, 25} {
		m, err := ss.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		ss.ReleaseMask(m)
	}
	rs := ss.Stats()
	if rs.CacheHits != 3 || rs.CacheMisses != 3 || rs.MasksLoaded != 3 {
		t.Fatalf("stats %+v, want 3 hits / 3 misses / 3 disk loads", rs)
	}
	per := ss.ShardStats()
	for i, s := range per {
		if s.CacheHits != 1 || s.CacheMisses != 1 {
			t.Fatalf("shard %d cache stats %+v, want 1 hit / 1 miss", i, s)
		}
	}
	// A small positive budget splits across arenas; it must keep
	// working (evictions, no growth past the total) rather than
	// degenerate.
	ss.SetCacheBytes(int64(3 * 16 * 16))
	for id := int64(1); id <= 36; id++ {
		m, err := ss.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		ss.ReleaseMask(m)
	}
	var resident int64
	for _, seg := range ss.set.Load().segs {
		if seg.cache != nil {
			resident += seg.cache.residentBytes()
		}
	}
	if resident > 3*16*16 {
		t.Fatalf("resident cache bytes %d exceed the %d budget", resident, 3*16*16)
	}
	if ss.Stats().CacheEvicted == 0 {
		t.Fatal("bounded arenas never evicted while sweeping the whole dataset")
	}
}

// TestShardedCacheBelowShardCount checks that a positive total budget
// smaller than the shard count still configures a cache on every shard:
// the shards whose share rounds to 0 keep nothing resident, but their
// loads count as misses like every other shard's.
func TestShardedCacheBelowShardCount(t *testing.T) {
	_, shardDir := genShardPair(t, 4)
	ss, _, err := Open(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ss.SetCacheBytes(3)
	n := int64(ss.NumMasks())
	for pass := 0; pass < 2; pass++ {
		for id := int64(1); id <= n; id++ {
			m, err := ss.LoadMask(id)
			if err != nil {
				t.Fatal(err)
			}
			ss.ReleaseMask(m)
		}
	}
	if rs := ss.Stats(); rs.MasksLoaded != 2*n || rs.CacheMisses != 2*n || rs.CacheHits != 0 {
		t.Fatalf("two passes over %d masks with a 3-byte cache: %+v, want every load a miss", n, rs)
	}
	for i, s := range ss.ShardStats() {
		if s.CacheMisses != s.MasksLoaded {
			t.Fatalf("shard %d: %d loads but %d misses — no cache arena", i, s.MasksLoaded, s.CacheMisses)
		}
	}
}

// TestShardedCompactionResplitsBudget compacts a sharded ingest store
// three times, each adding a shard, while readers load concurrently:
// after every compaction the per-shard budgets must sum to the
// configured total and no shard may hold more resident bytes than its
// own budget.
func TestShardedCompactionResplitsBudget(t *testing.T) {
	const total = 2048
	_, ws, _ := openIngestTiny(t, 2)
	ws.SetCacheBytes(total)
	ss := ws.Base()
	var known atomic.Int64
	known.Store(int64(ws.NumMasks()))
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
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
				m, err := ws.LoadMask(1 + rng.Int63n(known.Load()))
				if err != nil {
					t.Error(err)
					return
				}
				ws.ReleaseMask(m)
			}
		}(g)
	}
	check := func(round int) {
		var sum int64
		for i, seg := range ss.set.Load().segs {
			if seg.cache == nil {
				t.Errorf("round %d: shard %d has no cache arena", round, i)
				continue
			}
			budget := seg.cache.limit()
			sum += budget
			if r := seg.cache.residentBytes(); r > budget {
				t.Errorf("round %d: shard %d holds %d resident bytes, budget %d", round, i, r, budget)
			}
		}
		if sum != total || ss.CacheBytes() != total {
			t.Errorf("round %d: %d shards' budgets sum to %d, configured %d", round, ss.NumShards(), sum, ss.CacheBytes())
		}
	}
	for round := 0; round < 3; round++ {
		ids, err := ws.Append(context.Background(), ingestBatch(4, 16, 16, byte(round)))
		if err != nil {
			t.Error(err)
			break
		}
		if _, err := ws.Compact(context.Background()); err != nil {
			t.Error(err)
			break
		}
		known.Store(ids[len(ids)-1])
		check(round)
	}
	close(done)
	wg.Wait()
	if n := ss.NumShards(); n != 5 {
		t.Fatalf("%d shards after three compactions, want 5", n)
	}
}

// TestOpenTruncatedFailsFast is the regression test for the
// fail-fast size check: a short or padded masks.bin must fail at Open
// with a message naming the size mismatch, not mid-query.
func TestOpenTruncatedFailsFast(t *testing.T) {
	dir := t.TempDir()
	if err := Generate(dir, shardSpec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, masksFile)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, orig[:len(orig)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "masks.bin is") {
		t.Fatalf("truncated masks.bin: Open returned %v, want a size-mismatch error", err)
	}
	if err := os.WriteFile(path, append(orig, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "masks.bin is") {
		t.Fatalf("oversized masks.bin: Open returned %v, want a size-mismatch error", err)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err != nil {
		t.Fatalf("restored masks.bin should open: %v", err)
	}

	// The same check guards every shard segment.
	shardDir := t.TempDir()
	if err := Generate(shardDir, shardSpec, 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(shardDir, ShardDirName(1), masksFile)
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, seg[:len(seg)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(shardDir); err == nil || !strings.Contains(err.Error(), "masks.bin is") {
		t.Fatalf("truncated shard segment: Open returned %v, want a size-mismatch error", err)
	}
}

// TestRegenerateLeavesNoStaleLayout checks that regenerating a
// directory under the other layout leaves no stale files behind.
func TestRegenerateLeavesNoStaleLayout(t *testing.T) {
	dir := t.TempDir()
	if err := Generate(dir, shardSpec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if err := Generate(dir, shardSpec, 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, masksFile)); !os.IsNotExist(err) {
		t.Fatal("regenerating sharded left a stale top-level masks.bin")
	}
	// And back: regenerating unsharded removes the shard dirs.
	if err := Generate(dir, shardSpec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ShardDirName(0))); !os.IsNotExist(err) {
		t.Fatal("regenerating unsharded left stale shard directories")
	}
}
