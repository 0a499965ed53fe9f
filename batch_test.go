package masksearch

import (
	"fmt"
	"testing"
)

// batchStatements covers every plan shape QueryBatch stages: CP
// filters, metadata-only filters, LIMIT (incl. 0), plain and
// pre-filtered rankings, and aggregations.
var batchStatements = []string{
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20 AND model_id = 1`,
	`SELECT mask_id FROM masks WHERE CP(mask, full, 0.6, 1.0) > 200`,
	`SELECT mask_id FROM masks WHERE CP(mask, full, 0.6, 1.0) > 100 LIMIT 7`,
	`SELECT mask_id FROM masks WHERE mispredicted = true`,
	`SELECT mask_id FROM masks WHERE model_id = 1 LIMIT 0`,
	`SELECT mask_id FROM masks ORDER BY CP(mask, rect(2, 2, 20, 20), 0.5, 1.0) DESC LIMIT 10`,
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.5, 1.0) > 10 ORDER BY CP(mask, full, 0.7, 1.0) ASC LIMIT 8`,
	`SELECT image_id, MEAN(CP(mask, object, 0.5, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 6`,
}

// TestQueryBatchMatchesQuery is the facade determinism check: every
// batch result must be byte-identical to running the same statement
// alone through Query.
func TestQueryBatchMatchesQuery(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()

	want := make([]*Result, len(batchStatements))
	for i, sql := range batchStatements {
		res, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		want[i] = res
	}
	got, err := db.QueryBatch(ctx, batchStatements)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results for %d statements", len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind {
			t.Fatalf("statement %d: kind %v vs %v", i+1, got[i].Kind, want[i].Kind)
		}
		if fmt.Sprint(got[i].IDs) != fmt.Sprint(want[i].IDs) {
			t.Fatalf("statement %d: ids differ:\nbatch %v\nalone %v", i+1, got[i].IDs, want[i].IDs)
		}
		if fmt.Sprint(got[i].Ranked) != fmt.Sprint(want[i].Ranked) {
			t.Fatalf("statement %d: rankings differ:\nbatch %v\nalone %v", i+1, got[i].Ranked, want[i].Ranked)
		}
	}
}

// TestQueryBatchCacheSharing opens a DB with an unbounded mask cache
// and checks the acceptance property end to end: a repeated batch does
// no new disk reads — every verification is served by the cache.
func TestQueryBatchCacheSharing(t *testing.T) {
	dir := t.TempDir()
	spec := TinyDataset()
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	// Workers: 1 keeps the Top-K τ refinement deterministic, so the
	// warm batch provably needs only masks the cold batch cached.
	db, err := OpenWith(dir, Options{PersistIndexOnClose: false, CacheBytes: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := t.Context()

	if _, err := db.QueryBatch(ctx, batchStatements); err != nil {
		t.Fatal(err)
	}
	cold := db.ReadStats()
	if cold.MasksLoaded == 0 {
		t.Fatal("cold batch should verify some masks")
	}
	if cold.MasksLoaded != cold.CacheMisses {
		t.Fatalf("every cold load should be a cache miss: %+v", cold)
	}
	got, err := db.QueryBatch(ctx, batchStatements)
	if err != nil {
		t.Fatal(err)
	}
	warm := db.ReadStats()
	if warm.MasksLoaded != cold.MasksLoaded {
		t.Fatalf("warm batch read %d masks from disk (stats %+v)", warm.MasksLoaded-cold.MasksLoaded, warm)
	}
	if warm.CacheHits == cold.CacheHits {
		t.Fatalf("warm batch should hit the cache: %+v", warm)
	}
	// And the warm results still match a standalone Query.
	for i, sql := range batchStatements {
		res, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got[i].IDs) != fmt.Sprint(res.IDs) || fmt.Sprint(got[i].Ranked) != fmt.Sprint(res.Ranked) {
			t.Fatalf("statement %d: warm batch differs from Query(%q)", i+1, sql)
		}
	}
}

// TestQueryBatchErrors pins batch error behavior: any bad statement
// fails the whole batch with its index in the message, before
// execution.
func TestQueryBatchErrors(t *testing.T) {
	db := openGolden(t)
	db.st.ResetStats()
	_, err := db.QueryBatch(t.Context(), []string{
		`SELECT mask_id FROM masks WHERE model_id = 1`,
		`SELECT mask_id FROM pixels`,
	})
	if err == nil {
		t.Fatal("bad statement should fail the batch")
	}
	if want := `statement 2: 1:21: unknown table "pixels" (only "masks" exists)`; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	if s := db.st.Stats(); s.MasksLoaded != 0 {
		t.Fatalf("failed batch planning must not touch data: %+v", s)
	}

	if _, err := db.QueryBatch(t.Context(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestQueryBatchSharesLoads restates core's shared-load property on
// DB.QueryBatch: on a fresh database (no index, no cache) every target
// is verified, and a batch of overlapping filter statements loads each
// distinct mask exactly once while billing every statement for each of
// its own targets.
func TestQueryBatchSharesLoads(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateDataset(dir, TinyDataset()); err != nil {
		t.Fatal(err)
	}
	// Overlapping target sets: every mask is wanted by the first
	// statement and by one of the next two.
	sqls := []string{
		`SELECT mask_id FROM masks WHERE CP(mask, full, 0.3, 1.0) > 10`,
		`SELECT mask_id FROM masks WHERE CP(mask, full, 0.3, 1.0) > 11 AND model_id = 1`,
		`SELECT mask_id FROM masks WHERE CP(mask, full, 0.3, 1.0) > 12 AND model_id != 1`,
		`SELECT mask_id FROM masks WHERE CP(mask, full, 0.3, 1.0) > 13 AND image_id = 2`,
	}
	for _, workers := range []int{1, 2, 8} {
		db, err := OpenWith(dir, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.QueryBatch(t.Context(), sqls)
		if err != nil {
			t.Fatal(err)
		}
		billed := 0
		for i, r := range got {
			if r.Stats.Loaded != r.Stats.Targets {
				t.Fatalf("workers %d: statement %d billed %d loads for %d targets", workers, i+1, r.Stats.Loaded, r.Stats.Targets)
			}
			billed += r.Stats.Loaded
		}
		n := len(db.Entries())
		if loaded := db.ReadStats().MasksLoaded; loaded != int64(n) {
			t.Fatalf("workers %d: batch loaded %d masks, want each of the %d distinct masks exactly once", workers, loaded, n)
		}
		if billed <= n {
			t.Fatalf("workers %d: statements billed %d loads over %d physical loads — no sharing happened", workers, billed, n)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
