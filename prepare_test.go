package masksearch

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"masksearch/internal/workload"
)

// TestPreparedSweepEquivalence is the ISSUE 5 acceptance property: a
// §4.3 threshold sweep driven through one prepared statement per
// shape returns results byte-identical to per-call DB.Query with
// literal SQL — across worker counts {1, 2, 8} and sharded/unsharded
// storage layouts.
func TestPreparedSweepEquivalence(t *testing.T) {
	spec := TinyDataset()
	spec.Images = 24
	flatDir, shardDir := t.TempDir(), t.TempDir()
	if err := GenerateDataset(flatDir, spec); err != nil {
		t.Fatal(err)
	}
	if err := GenerateShardedDatasetCodec(shardDir, spec, 3, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// reference[i] is the sweep's result id lists, filled by the first
	// configuration and required identical everywhere else.
	var reference [][]int64
	for _, layout := range []struct {
		name, dir string
	}{{"flat", flatDir}, {"sharded", shardDir}} {
		for _, workers := range []int{1, 2, 8} {
			db, err := OpenWith(layout.dir, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ids := db.cat.MaskIDs(nil)
			rng := rand.New(rand.NewSource(99))
			var swept [][]int64
			for shape := 0; shape < 4; shape++ {
				q := workload.RandomFilter(rng, db.cat, spec.W, spec.H, ids)
				sql, args := q.SQL()
				stmt, err := db.Prepare(sql)
				if err != nil {
					t.Fatalf("%s/w%d: Prepare(%q): %v", layout.name, workers, sql, err)
				}
				area := float64(q.ROI.Area())
				if q.UseObject {
					area = float64(spec.W * spec.H / 8)
				}
				for _, frac := range []float64{0.01, 0.1, 0.4} {
					q.Thresh = int64(frac * area)
					args[2] = q.Thresh
					// Read-only execution pins the index state, so the
					// two paths must agree on stats too, not just ids.
					prepared, err := stmt.Query(ctx, append(args, WithoutIndexUpdates())...)
					if err != nil {
						t.Fatalf("%s/w%d: prepared query: %v", layout.name, workers, err)
					}
					literal, err := db.Query(ctx, q.LiteralSQL(), WithoutIndexUpdates())
					if err != nil {
						t.Fatalf("%s/w%d: literal query %q: %v", layout.name, workers, q.LiteralSQL(), err)
					}
					if !reflect.DeepEqual(prepared, literal) {
						t.Fatalf("%s/w%d shape %d thresh %d: prepared result differs from literal:\nprepared %+v\nliteral  %+v",
							layout.name, workers, shape, q.Thresh, prepared, literal)
					}
					swept = append(swept, prepared.IDs)
				}
			}
			if reference == nil {
				reference = swept
			} else if !reflect.DeepEqual(swept, reference) {
				t.Fatalf("%s/w%d: sweep ids differ from the flat sequential reference", layout.name, workers)
			}
			db.Close()
		}
	}
}

// TestStmtQueryBatchMatchesQuery checks that a prepared statement
// executed as one batched sweep returns the same rows per argument
// set as per-call execution.
func TestStmtQueryBatchMatchesQuery(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()
	stmt, err := db.Prepare(`SELECT mask_id FROM masks WHERE CP(mask, object, ?, 1.0) > ?`)
	if err != nil {
		t.Fatal(err)
	}
	argSets := [][]any{
		{0.8, 10}, {0.8, 40}, {0.6, 40}, {0.5, 120}, {0.9, 0},
	}
	want := make([]*Result, len(argSets))
	for i, args := range argSets {
		if want[i], err = stmt.Query(ctx, args...); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stmt.QueryBatch(ctx, argSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].IDs, want[i].IDs) {
			t.Fatalf("set %d: batch ids %v != per-call ids %v", i, got[i].IDs, want[i].IDs)
		}
	}
	if _, err := stmt.QueryBatch(ctx, [][]any{{0.8}}); err == nil {
		t.Fatal("short argument set should fail the batch")
	} else if !strings.Contains(err.Error(), "argument set 1") {
		t.Fatalf("batch bind error %q does not name the argument set", err)
	}
}

// TestRowsStreaming is the streaming acceptance check: a drained
// stream equals the materialized result, and an early-stopped stream
// performs strictly fewer mask loads (observed via ReadStats).
func TestRowsStreaming(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()
	sql := `SELECT mask_id FROM masks WHERE CP(mask, full, ?, 1.0) > ?`

	// Materializing pass; WithoutIndexUpdates keeps the CHI index
	// empty so the streaming pass below re-verifies from disk instead
	// of being answered by bounds.
	before := db.ReadStats().MasksLoaded
	res, err := db.Query(ctx, sql, 0.5, 5, WithoutIndexUpdates())
	if err != nil {
		t.Fatal(err)
	}
	fullLoads := db.ReadStats().MasksLoaded - before
	if res.Stats.Targets == 0 || fullLoads == 0 {
		t.Fatalf("materializing pass loaded %d masks over %d targets, want a full cold scan", fullLoads, res.Stats.Targets)
	}

	// Drained stream: byte-identical ids in order.
	var streamed []int64
	for row, err := range db.Rows(ctx, sql, 0.5, 5, WithoutIndexUpdates()) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, row.ID)
	}
	if !reflect.DeepEqual(streamed, res.IDs) {
		t.Fatalf("drained stream ids differ:\nstream %v\nquery  %v", streamed, res.IDs)
	}

	// Early stop after 3 rows: strictly fewer loads than the full pass.
	before = db.ReadStats().MasksLoaded
	var got []int64
	for row, err := range db.Rows(ctx, sql, 0.5, 5, WithoutIndexUpdates()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row.ID)
		if len(got) == 3 {
			break
		}
	}
	earlyLoads := db.ReadStats().MasksLoaded - before
	if !reflect.DeepEqual(got, res.IDs[:3]) {
		t.Fatalf("early-stopped stream ids %v != first 3 materialized ids %v", got, res.IDs[:3])
	}
	if earlyLoads >= fullLoads {
		t.Fatalf("early stop loaded %d masks, want strictly fewer than the materializing path's %d", earlyLoads, fullLoads)
	}

	// Ranked plans stream their ranked rows (after scoring).
	topSQL := `SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.5, 1.0) DESC LIMIT ?`
	want, err := db.Query(ctx, topSQL, 6)
	if err != nil {
		t.Fatal(err)
	}
	var ranked []Scored
	for row, err := range db.Rows(ctx, topSQL, 6) {
		if err != nil {
			t.Fatal(err)
		}
		ranked = append(ranked, Scored{ID: row.ID, Score: row.Score})
	}
	if !reflect.DeepEqual(ranked, want.Ranked) {
		t.Fatalf("streamed ranked rows differ:\nstream %v\nquery  %v", ranked, want.Ranked)
	}
}

// TestQueryOptions exercises the per-query tuning knobs: identical
// results under worker overrides, per-query eager bounds building the
// index, and read-only queries leaving it untouched.
func TestQueryOptions(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()
	sql := `SELECT mask_id FROM masks WHERE CP(mask, object, 0.6, 1.0) > 40`

	if db.idx.Len() != 0 {
		t.Fatalf("fresh DB has %d indexed masks, want 0", db.idx.Len())
	}

	// Read-only query: results normal, index untouched.
	readonly, err := db.Query(ctx, sql, WithoutIndexUpdates())
	if err != nil {
		t.Fatal(err)
	}
	if db.idx.Len() != 0 || db.dirty.Load() {
		t.Fatalf("WithoutIndexUpdates grew the index to %d masks (dirty=%v)", db.idx.Len(), db.dirty.Load())
	}

	// Worker overrides: byte-identical results.
	for _, w := range []int{0, 2, 8} {
		res, err := db.Query(ctx, sql, WithWorkers(w), WithoutIndexUpdates())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs, readonly.IDs) {
			t.Fatalf("WithWorkers(%d) ids differ from sequential", w)
		}
	}
	if _, err := db.Query(ctx, sql, WithWorkers(-2)); err == nil {
		t.Fatal("WithWorkers(-2) should be rejected")
	}
	if _, err := db.Query(ctx, sql, WithEagerBounds(), WithoutIndexUpdates()); err == nil {
		t.Fatal("WithEagerBounds + WithoutIndexUpdates should be rejected")
	}

	// Eager bounds: the whole target set gets a CHI before filtering.
	eager, err := db.Query(ctx, sql, WithEagerBounds())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eager.IDs, readonly.IDs) {
		t.Fatal("WithEagerBounds changed the result")
	}
	if got, want := db.idx.Len(), len(db.Entries()); got != want {
		t.Fatalf("WithEagerBounds indexed %d masks, want all %d", got, want)
	}
	if eager.Stats.Loaded != 0 && eager.Stats.AcceptedByBounds+eager.Stats.RejectedByBounds == 0 {
		t.Fatal("eager bounds produced no bound decisions")
	}
}

// TestPlanCache checks that raw Query amortizes parse+plan through
// the LRU template cache, and that the cache can be disabled and is
// bounded.
func TestPlanCache(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()
	sql := `SELECT mask_id FROM masks WHERE CP(mask, object, ?, 1.0) > ?`

	s1, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("Prepare of the same text should return the cached statement")
	}
	if _, err := db.Query(ctx, sql, 0.8, 10); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits < 2 || st.Entries == 0 {
		t.Fatalf("plan cache did not amortize: %+v", st)
	}

	// Bounded: capacity 2 holds at most 2 templates.
	dir := t.TempDir()
	spec := TinyDataset()
	spec.Images = 8
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	small, err := OpenWith(dir, Options{PlanCacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	for _, q := range []string{
		`SELECT mask_id FROM masks LIMIT 1`,
		`SELECT mask_id FROM masks LIMIT 2`,
		`SELECT mask_id FROM masks LIMIT 3`,
	} {
		if _, err := small.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := small.PlanCacheStats(); st.Entries != 2 {
		t.Fatalf("bounded plan cache holds %d entries, want 2", st.Entries)
	}

	// Disabled: no sharing, no hits.
	off, err := OpenWith(dir, Options{PlanCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	o1, _ := off.Prepare(sql)
	o2, _ := off.Prepare(sql)
	if o1 == o2 {
		t.Fatal("disabled plan cache should compile fresh statements")
	}
	if st := off.PlanCacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled plan cache reported %+v", st)
	}
}

// TestOptionsValidation pins the OpenWith validation contract
// (silently misbehaving values are now errors) and the documented
// cache sentinels.
func TestOptionsValidation(t *testing.T) {
	dir := t.TempDir()
	spec := TinyDataset()
	spec.Images = 4
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Workers: -1},
		{CacheBytes: -5},
		{PlanCacheEntries: -2},
	}
	for _, opts := range bad {
		if _, err := OpenWith(dir, opts); err == nil {
			t.Fatalf("OpenWith(%+v) succeeded, want validation error", opts)
		}
	}
	db, err := OpenWith(dir, Options{CacheBytes: CacheUnbounded, Workers: 2})
	if err != nil {
		t.Fatalf("sentinel CacheUnbounded rejected: %v", err)
	}
	db.Close()
	db, err = OpenWith(dir, Options{CacheBytes: CacheDisabled})
	if err != nil {
		t.Fatalf("sentinel CacheDisabled rejected: %v", err)
	}
	db.Close()
}
