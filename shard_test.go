package masksearch

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// shardEquivQueries covers every plan kind the facade can compile:
// plain filter, metadata-restricted filter, LIMIT'd filter, topk,
// topk with a CP pre-filter, and aggregation.
var shardEquivQueries = []string{
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`,
	`SELECT mask_id FROM masks WHERE CP(mask, full, 0.6, 1.0) > 100 AND model_id = 1`,
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.7, 1.0) > 10 LIMIT 7`,
	`SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.5, 1.0) DESC LIMIT 9`,
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.4, 1.0) > 30 ORDER BY CP(mask, object, 0.8, 1.0) ASC LIMIT 5`,
	`SELECT image_id, MEAN(CP(mask, object, 0.8, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 11`,
}

// TestShardedQueryEquivalence is the PR's acceptance property: every
// query kind, under every worker count and cache budget, over an
// S-sharded dataset returns results byte-identical to the same
// dataset stored unsharded — and the aggregated ReadStats equal the
// sum of the per-shard stats.
func TestShardedQueryEquivalence(t *testing.T) {
	spec := TinyDataset()
	flatDir := t.TempDir()
	if err := GenerateDataset(flatDir, spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference: unsharded, sequential.
	ref, err := OpenWith(flatDir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]*Result, len(shardEquivQueries))
	for i, q := range shardEquivQueries {
		if want[i], err = ref.Query(ctx, q); err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}

	for _, shards := range []int{2, 4} {
		dir := t.TempDir()
		if err := GenerateShardedDatasetCodec(dir, spec, shards, CodecRaw); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, cacheBytes := range []int64{0, -1} {
				db, err := OpenWith(dir, Options{Workers: workers, CacheBytes: cacheBytes})
				if err != nil {
					t.Fatal(err)
				}
				if db.Shards() != shards {
					t.Fatalf("Shards() = %d, want %d", db.Shards(), shards)
				}
				for i, q := range shardEquivQueries {
					got, err := db.Query(ctx, q)
					if err != nil {
						t.Fatalf("shards=%d workers=%d cache=%d query %d: %v", shards, workers, cacheBytes, i, err)
					}
					if got.Kind != want[i].Kind || !reflect.DeepEqual(got.IDs, want[i].IDs) ||
						!reflect.DeepEqual(got.Ranked, want[i].Ranked) {
						t.Fatalf("shards=%d workers=%d cache=%d query %d diverged from unsharded:\ngot  %+v\nwant %+v",
							shards, workers, cacheBytes, i, got, want[i])
					}
				}
				// The whole set again as one batch.
				batch, err := db.QueryBatch(ctx, shardEquivQueries)
				if err != nil {
					t.Fatalf("shards=%d workers=%d cache=%d batch: %v", shards, workers, cacheBytes, err)
				}
				for i, got := range batch {
					if got.Kind != want[i].Kind || !reflect.DeepEqual(got.IDs, want[i].IDs) ||
						!reflect.DeepEqual(got.Ranked, want[i].Ranked) {
						t.Fatalf("shards=%d workers=%d cache=%d batch query %d diverged:\ngot  %+v\nwant %+v",
							shards, workers, cacheBytes, i, got, want[i])
					}
				}
				// Aggregated stats must be the exact per-shard sum.
				per := db.ShardReadStats()
				if len(per) != shards {
					t.Fatalf("ShardReadStats returned %d entries, want %d", len(per), shards)
				}
				var sum ReadStats
				for _, s := range per {
					sum.MasksLoaded += s.MasksLoaded
					sum.BytesRead += s.BytesRead
					sum.CacheHits += s.CacheHits
					sum.CacheMisses += s.CacheMisses
					sum.CacheEvicted += s.CacheEvicted
				}
				if got := db.ReadStats(); got != sum {
					t.Fatalf("shards=%d: aggregate ReadStats %+v != per-shard sum %+v", shards, got, sum)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestShardedIndexPersistence checks the incremental index round-trips
// through a sharded directory exactly as through a flat one.
func TestShardedIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 3, CodecRaw); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, Options{PersistIndexOnClose: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(t.Context(), `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Loaded == 0 {
		t.Fatal("cold query should verify some masks")
	}
	is, err := db.IndexStats()
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
	is2, err := db2.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if is2.IndexedMasks != is.IndexedMasks {
		t.Fatalf("persisted index has %d masks, session 1 had %d", is2.IndexedMasks, is.IndexedMasks)
	}
	res2, err := db2.Query(t.Context(), `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Loaded >= res.Stats.Loaded {
		t.Fatalf("warm query loaded %d masks, cold loaded %d — persisted index unused", res2.Stats.Loaded, res.Stats.Loaded)
	}
}

// TestQueryCancelled pins the facade's ctx contract for Query and
// QueryBatch: a cancelled context surfaces ctx.Err() for every plan
// kind, sequential and parallel, and the DB stays usable afterwards.
func TestQueryCancelled(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateDataset(dir, TinyDataset()); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`,
		`SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.5, 1.0) DESC LIMIT 5`,
		`SELECT image_id, MEAN(CP(mask, object, 0.8, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 5`,
	}
	for _, workers := range []int{1, 4} {
		db, err := OpenWith(dir, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for i, q := range queries {
			if _, err := db.Query(cancelled, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d query %d with cancelled ctx returned %v, want context.Canceled", workers, i, err)
			}
		}
		if _, err := db.QueryBatch(cancelled, queries); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d batch with cancelled ctx returned %v, want context.Canceled", workers, err)
		}
		// The failed queries must not have wedged the store or index:
		// the same statements succeed on a live context.
		for i, q := range queries {
			if _, err := db.Query(context.Background(), q); err != nil {
				t.Fatalf("workers=%d query %d after cancellation: %v", workers, i, err)
			}
		}
		if _, err := db.QueryBatch(context.Background(), queries); err != nil {
			t.Fatalf("workers=%d batch after cancellation: %v", workers, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLimitZeroMatchesPlanKind is the regression test for the
// LIMIT 0 result shape: the empty result must land in the field the
// plan kind answers in (Ranked for topk/aggregation, IDs for filter),
// through both Query and QueryBatch.
func TestLimitZeroMatchesPlanKind(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateDataset(dir, TinyDataset()); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	queries := []string{
		`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20 LIMIT 0`,
		`SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.5, 1.0) DESC LIMIT 0`,
		`SELECT image_id, MEAN(CP(mask, object, 0.8, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 0`,
	}
	check := func(mode string, i int, res *Result) {
		t.Helper()
		filter := i == 0
		if filter {
			if res.IDs == nil || len(res.IDs) != 0 || res.Ranked != nil {
				t.Fatalf("%s LIMIT 0 filter: want IDs []int64{} and nil Ranked, got %+v", mode, res)
			}
		} else if res.Ranked == nil || len(res.Ranked) != 0 || res.IDs != nil {
			t.Fatalf("%s LIMIT 0 %v plan: want Ranked []Scored{} and nil IDs, got %+v", mode, res.Kind, res)
		}
		if res.Stats.Loaded != 0 {
			t.Fatalf("%s LIMIT 0 loaded %d masks, want 0", mode, res.Stats.Loaded)
		}
	}
	for i, q := range queries {
		res, err := db.Query(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		check("Query", i, res)
	}
	batch, err := db.QueryBatch(t.Context(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		check("QueryBatch", i, res)
	}
}
