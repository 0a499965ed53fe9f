package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"masksearch/internal/core"
)

// maskBytes is one mask's storage footprint in the tiny fixture.
const tinyMaskBytes = 16 * 16

func loadAll(t *testing.T, st *Store, ids ...int64) []*core.Mask {
	t.Helper()
	out := make([]*core.Mask, len(ids))
	for i, id := range ids {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// TestCacheHitMissEvict pins the LRU mechanics and the new ReadStats
// counters: repeat loads hit, the budget evicts cold entries, and hits
// never touch the disk counters.
func TestCacheHitMissEvict(t *testing.T) {
	_, st, _ := genTiny(t)
	st.SetCacheBytes(2 * tinyMaskBytes)
	st.ResetStats()

	ms := loadAll(t, st, 1, 2)
	for _, m := range ms {
		st.ReleaseMask(m)
	}
	s := st.Stats()
	if s.MasksLoaded != 2 || s.CacheMisses != 2 || s.CacheHits != 0 || s.CacheEvicted != 0 {
		t.Fatalf("cold loads: %+v", s)
	}

	// Warm reload: no disk traffic.
	m1, err := st.LoadMask(1)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseMask(m1)
	s = st.Stats()
	if s.MasksLoaded != 2 || s.BytesRead != 2*tinyMaskBytes || s.CacheHits != 1 {
		t.Fatalf("warm reload should not read disk: %+v", s)
	}

	// Loading a third mask must evict the LRU entry — mask 2, because
	// the reload refreshed mask 1.
	m3, err := st.LoadMask(3)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseMask(m3)
	s = st.Stats()
	if s.CacheEvicted != 1 {
		t.Fatalf("over-budget load should evict exactly one: %+v", s)
	}
	if m, _ := st.LoadMask(1); m == nil {
		t.Fatal("mask 1 should still be resident")
	} else {
		st.ReleaseMask(m)
	}
	if hits := st.Stats().CacheHits; hits != 2 {
		t.Fatalf("mask 1 should have been the retained entry: %+v", st.Stats())
	}
	if _, err := st.LoadMask(2); err != nil {
		t.Fatal(err)
	}
	s = st.Stats()
	if s.CacheMisses != 4 { // 1, 2, 3, and 2 again
		t.Fatalf("evicted mask should re-read from disk: %+v", s)
	}
}

// TestCachePinnedBytesSafe checks the pin/detach contract: a held
// mask's bytes are never pooled (and so never overwritten) no matter
// how much budget pressure churns the cache, while the budget itself
// stays enforced even against callers that hoard masks without ever
// releasing them.
func TestCachePinnedBytesSafe(t *testing.T) {
	_, st, _ := genTiny(t)
	st.SetCacheBytes(tinyMaskBytes) // room for one mask
	st.ResetStats()

	held := loadAll(t, st, 1, 2, 3)
	want := make([][]uint8, len(held))
	for i, m := range held {
		want[i] = append([]uint8(nil), m.Bytes...)
	}
	// Hoarded pins must not defeat the budget: over-budget held
	// entries are detached from the cache, not kept resident.
	if n := st.cache.residentBytes(); n > tinyMaskBytes {
		t.Fatalf("cache holds %d bytes with hoarded pins, budget %d", n, tinyMaskBytes)
	}
	// Churn more loads through the cache while the masks are held.
	for id := int64(4); id <= 8; id++ {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseMask(m)
	}
	for i, m := range held {
		for j := range m.Bytes {
			if m.Bytes[j] != want[i][j] {
				t.Fatalf("held mask %d byte %d corrupted while cache churned", i+1, j)
			}
		}
	}
	// Releasing detached masks routes them to the plain pool; the
	// cache stays within budget throughout.
	for _, m := range held {
		st.ReleaseMask(m)
	}
	if n := st.cache.residentBytes(); n > tinyMaskBytes {
		t.Fatalf("cache holds %d bytes after release, budget %d", n, tinyMaskBytes)
	}
}

// TestCacheUnbounded checks that a negative budget never evicts and
// that a warm pass over the whole dataset does zero disk reads.
func TestCacheUnbounded(t *testing.T) {
	_, st, _ := genTiny(t)
	st.SetCacheBytes(-1)
	st.ResetStats()
	n := int64(st.NumMasks())
	for id := int64(1); id <= n; id++ {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseMask(m)
	}
	cold := st.Stats()
	if cold.MasksLoaded != n || cold.CacheMisses != n {
		t.Fatalf("cold pass: %+v", cold)
	}
	for id := int64(1); id <= n; id++ {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseMask(m)
	}
	warm := st.Stats()
	if warm.MasksLoaded != n || warm.CacheHits != n || warm.CacheEvicted != 0 {
		t.Fatalf("warm pass should be all hits: %+v", warm)
	}
}

// TestCacheConcurrentStress hammers a tiny (heavily evicting) cache
// from many goroutines — the -race companion to the LRU: every load
// must return the right pixels no matter how the pin/evict/pool
// traffic interleaves.
func TestCacheConcurrentStress(t *testing.T) {
	_, st, _ := genTiny(t)
	n := int64(st.NumMasks())
	want := make([][]uint8, n+1)
	for id := int64(1); id <= n; id++ {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = append([]uint8(nil), m.Bytes...)
		st.ReleaseMask(m)
	}
	st.SetCacheBytes(3 * tinyMaskBytes)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				id := 1 + rng.Int63n(n)
				m, err := st.LoadMask(id)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < len(m.Bytes); j += 37 {
					if m.Bytes[j] != want[id][j] {
						t.Errorf("goroutine %d: mask %d byte %d = %d, want %d",
							g, id, j, m.Bytes[j], want[id][j])
						return
					}
				}
				if rng.Intn(4) != 0 { // sometimes leak to the GC, as user code may
					st.ReleaseMask(m)
				}
			}
		}(g)
	}
	wg.Wait()
	s := st.Stats()
	if s.CacheHits == 0 || s.CacheEvicted == 0 {
		t.Fatalf("stress run should both hit and evict: %+v", s)
	}
}

// TestExecBatchAgainstStoreMatrix is the cross-layer batch-correctness
// property: drivers run under core.Batch over a real Store must be
// byte-identical to per-query sequential execution across workers ∈
// {1, 2, 8} × CacheBytes ∈ {0, tiny, unbounded} — and with a warm
// unbounded cache the batch must load zero masks from disk.
func TestExecBatchAgainstStoreMatrix(t *testing.T) {
	_, st, cat := genTiny(t)
	ctx := context.Background()
	ids := cat.MaskIDs(nil)
	// Index two thirds of the masks so bounds and verification paths
	// both run.
	idx := core.NewMemoryIndex(core.Config{CellW: 4, CellH: 4, Edges: core.DefaultEdges(10)})
	if _, err := core.IndexAll(ctx, st, idx, ids[:2*len(ids)/3], core.Exec{}); err != nil {
		t.Fatal(err)
	}

	// Each query answers as one string: its ids or its ranking.
	rng := rand.New(rand.NewSource(51))
	var qs []func(ctx context.Context, s core.Stages) (string, error)
	for i := 0; i < 6; i++ {
		x0, y0 := rng.Intn(8), rng.Intn(8)
		roi := core.Rect{X0: x0, Y0: y0, X1: x0 + 4 + rng.Intn(8), Y1: y0 + 4 + rng.Intn(8)}
		terms := []core.CPTerm{{Region: core.FixedRegion(roi), Range: core.ValueRange{Lo: 0.3 + 0.1*float64(rng.Intn(4)), Hi: 1.0}}}
		if i%2 == 0 {
			pred := core.Cmp{T: 0, Op: core.OpGt, C: int64(rng.Intn(80))}
			qs = append(qs, func(ctx context.Context, s core.Stages) (string, error) {
				out, _, err := core.FilterOn(ctx, s, ids, terms, pred)
				return fmt.Sprint(out), err
			})
		} else {
			k, ord := 3+rng.Intn(10), core.Order(rng.Intn(2))
			qs = append(qs, func(ctx context.Context, s core.Stages) (string, error) {
				ranked, _, err := core.TopKOn(ctx, s, ids, terms, 0, k, ord)
				return fmt.Sprint(ranked), err
			})
		}
	}
	batch := func(env *core.Env) ([]string, error) {
		got := make([]string, len(qs))
		err := core.Batch(ctx, env, len(qs), func(ctx context.Context, i int, s core.Stages) (err error) {
			got[i], err = qs[i](ctx, s)
			return err
		})
		return got, err
	}

	// Reference: each query alone, sequential engine, no cache.
	st.SetCacheBytes(0)
	env := &core.Env{Loader: st, Index: idx}
	want := make([]string, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = q(ctx, env); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 8} {
		for _, cacheBytes := range []int64{0, 2 * tinyMaskBytes, -1} {
			name := fmt.Sprintf("workers=%d cache=%d", workers, cacheBytes)
			st.SetCacheBytes(cacheBytes)
			benv := &core.Env{Loader: st, Index: idx, Exec: core.Exec{Workers: workers}}
			st.ResetStats()
			got, err := batch(benv)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: query %d differs from sequential standalone run", name, i)
				}
			}
			cold := st.Stats()
			// A batch loads each distinct mask at most once regardless
			// of caching.
			if cold.MasksLoaded > int64(len(ids)) {
				t.Fatalf("%s: batch loaded %d masks, more than the %d distinct targets", name, cold.MasksLoaded, len(ids))
			}
			if cacheBytes == -1 {
				// Warm unbounded cache: the same batch again must load
				// nothing from disk. Warm every mask first — the cold
				// batch's τ refinement may have skipped (and so never
				// cached) some of them.
				for _, id := range ids {
					m, err := st.LoadMask(id)
					if err != nil {
						t.Fatal(err)
					}
					st.ReleaseMask(m)
				}
				st.ResetStats()
				again, err := batch(benv)
				if err != nil {
					t.Fatalf("%s warm: %v", name, err)
				}
				for i := range again {
					if again[i] != want[i] {
						t.Fatalf("%s: warm query %d differs", name, i)
					}
				}
				warm := st.Stats()
				if warm.MasksLoaded != 0 {
					t.Fatalf("%s: warm batch read %d masks from disk, want 0 (stats %+v)", name, warm.MasksLoaded, warm)
				}
				st.SetCacheBytes(0) // drop the warm cache before the next matrix cell
			}
		}
	}
}

// lruModel is the oracle for the mask cache: resident ids with their
// footprints, least recent first, evicting from the front until the
// byte budget (< 0: unbounded) holds.
type lruModel struct {
	budget, size, evicted int64
	bytes                 map[int64]int64
	order                 []int64
}

// load records one load and reports whether it was a hit.
func (m *lruModel) load(id, bytes int64) bool {
	if _, ok := m.bytes[id]; ok {
		m.order = append(slices.DeleteFunc(m.order, func(x int64) bool { return x == id }), id)
		return true
	}
	m.bytes[id] = bytes
	m.size += bytes
	m.order = append(m.order, id)
	for m.budget >= 0 && m.size > m.budget {
		m.size -= m.bytes[m.order[0]]
		delete(m.bytes, m.order[0])
		m.order = m.order[1:]
		m.evicted++
	}
	return false
}

// TestCacheMatchesLRUModel replays random load sequences with locality
// through a store's cache and through lruModel: every load's hit or
// miss and the cumulative eviction count must agree, and the resident
// bytes must equal the model's and stay within budget. Compactions
// between rounds append ids past the slot table's first size. Raw and
// rle stores give equal and varying footprints; the budgets are below
// the smallest mask, a few masks, and unbounded.
func TestCacheMatchesLRUModel(t *testing.T) {
	const w, h = 16, 16
	for codec, name := range map[string]string{CodecRaw: "raw", CodecRLE: "rle"} {
		dir := t.TempDir()
		if err := GenerateCodec(dir, Spec{Name: "t", Images: 12, Models: 2, W: w, H: h, Seed: 31, HumanAttention: true}, codec); err != nil {
			t.Fatal(err)
		}
		smallest := int64(w * h)
		{
			st, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for id := int64(1); id <= int64(st.NumMasks()); id++ {
				b, _, err := st.stored(id)
				if err != nil {
					t.Fatal(err)
				}
				smallest = min(smallest, int64(len(b)))
			}
			st.Close()
		}
		for _, budget := range []int64{smallest - 1, 4 * w * h, -1} {
			t.Run(fmt.Sprintf("%s/budget=%d", name, budget), func(t *testing.T) {
				work := t.TempDir()
				if err := os.CopyFS(work, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				ws, _, err := OpenIngest(DirFS(), work)
				if err != nil {
					t.Fatal(err)
				}
				defer ws.Close()
				ws.SetCacheBytes(budget)
				base := ws.Base().(*Store)
				model := &lruModel{budget: budget, bytes: map[int64]int64{}}
				rng := rand.New(rand.NewSource(budget))
				n := int64(ws.NumMasks())
				cur := int64(1)
				for round := 0; round < 4; round++ {
					for i := 0; i < 200; i++ {
						if rng.Intn(4) == 0 {
							cur = 1 + rng.Int63n(n)
						} else {
							cur = min(n, max(1, cur+rng.Int63n(7)-3))
						}
						before := ws.Stats()
						m, err := ws.LoadMask(cur)
						if err != nil {
							t.Fatal(err)
						}
						after := ws.Stats()
						wantHit := model.load(cur, int64(len(m.Bytes)+len(m.RLE)))
						ws.ReleaseMask(m)
						hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
						if wantHit && (hits != 1 || misses != 0) || !wantHit && (hits != 0 || misses != 1) {
							t.Fatalf("round %d load %d of mask %d: %d hits, %d misses; model hit=%v", round, i, cur, hits, misses, wantHit)
						}
						if after.CacheEvicted != model.evicted {
							t.Fatalf("round %d load %d of mask %d: %d evicted, model %d", round, i, cur, after.CacheEvicted, model.evicted)
						}
						if got := base.cache.residentBytes(); got != model.size || budget >= 0 && got > budget {
							t.Fatalf("round %d load %d: %d resident bytes, model %d, budget %d", round, i, got, model.size, budget)
						}
					}
					if _, err := ws.Append(context.Background(), ingestBatch(9, w, h, byte(40*round))); err != nil {
						t.Fatal(err)
					}
					if _, err := ws.Compact(context.Background()); err != nil {
						t.Fatal(err)
					}
					n = int64(ws.NumMasks())
					cur = n // start the next round on the new ids
				}
				if s := ws.Stats(); s.CacheHits == 0 && budget != smallest-1 || s.CacheEvicted == 0 && budget >= 0 {
					t.Fatalf("the sequence never hit or never evicted: %+v", s)
				}
			})
		}
	}
}
