package masksearch

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// openGolden opens a tiny deterministic database for SQL tests.
func openGolden(t *testing.T) *DB {
	t.Helper()
	dir := t.TempDir()
	spec := TinyDataset()
	spec.Images = 16
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, Options{PersistIndexOnClose: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestExplainGolden pins the EXPLAIN rendering of the two doc-comment
// queries of cmd/msquery, plus a topk form.
func TestExplainGolden(t *testing.T) {
	db := openGolden(t)
	cases := []struct {
		name, sql, want string
	}{
		{
			name: "filter_doc_query",
			sql:  `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 2000 AND model_id = 1`,
			want: `plan: filter
source: masks
targets: model_id = 1
terms:
  T0 = CP(mask, object, [0.8, 1.0])
predicate: T0 > 2000
output: mask_id
`,
		},
		{
			name: "agg_doc_query",
			sql:  `SELECT image_id, MEAN(CP(mask, object, 0.8, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 25`,
			want: `plan: aggregation
source: masks
targets: all
group by: image_id
terms:
  T0 = CP(mask, object, [0.8, 1.0])
aggregate: a = MEAN(T0)
order by: a DESC
limit: 25
output: image_id, a
`,
		},
		{
			name: "topk_query",
			sql:  `SELECT mask_id FROM masks WHERE modified = true ORDER BY CP(mask, rect(4, 4, 28, 28), 0.6, 1.0) DESC LIMIT 10`,
			want: `plan: topk
source: masks
targets: modified = true
terms:
  T0 = CP(mask, rect(4,4,28,28), [0.6, 1.0])
order by: T0 DESC
limit: 10
output: mask_id, score
`,
		},
		{
			name: "metadata_only_filter",
			sql:  `SELECT mask_id FROM masks WHERE mispredicted = true AND model_id != 2`,
			want: `plan: filter
source: masks
targets: mispredicted = true AND model_id != 2
terms:
  (none — metadata only)
predicate: true
output: mask_id
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := db.Explain(tc.sql)
			if err != nil {
				t.Fatalf("Explain(%q): %v", tc.sql, err)
			}
			if got != tc.want {
				t.Fatalf("Explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// TestExplainParameterizedGolden pins the EXPLAIN rendering of
// parameterized plans in both forms: the unbound template
// (placeholders as ?N) and the plan bound to concrete arguments.
func TestExplainParameterizedGolden(t *testing.T) {
	db := openGolden(t)
	cases := []struct {
		name, sql             string
		args                  []any
		wantUnbound, wantBind string
	}{
		{
			name: "filter_all_sites",
			sql:  `SELECT mask_id FROM masks WHERE CP(mask, object, ?, ?) > ? AND model_id = ? LIMIT ?`,
			args: []any{0.8, 1.0, 2000, 1, 10},
			wantUnbound: `plan: filter
source: masks
targets: model_id = ?4
terms:
  T0 = CP(mask, object, [?1, ?2])
predicate: T0 > ?3
limit: ?5
output: mask_id
`,
			wantBind: `plan: filter
source: masks
targets: model_id = 1
terms:
  T0 = CP(mask, object, [0.8, 1.0])
predicate: T0 > 2000
limit: 10
output: mask_id
`,
		},
		{
			name: "topk_prefilter_threshold",
			sql:  `SELECT mask_id FROM masks WHERE CP(mask, object, 0.5, 1.0) > ? ORDER BY CP(mask, full, ?, 1.0) ASC LIMIT 4`,
			args: []any{25, 0.7},
			wantUnbound: `plan: topk
source: masks
targets: all
pre-filter:
  T0 = CP(mask, object, [0.5, 1.0])
  predicate: T0 > ?1
  (ranking runs on the filtered targets)
terms:
  T0 = CP(mask, full, [?2, 1])
order by: T0 ASC
limit: 4
output: mask_id, score
`,
			wantBind: `plan: topk
source: masks
targets: all
pre-filter:
  T0 = CP(mask, object, [0.5, 1.0])
  predicate: T0 > 25
  (ranking runs on the filtered targets)
terms:
  T0 = CP(mask, full, [0.7, 1.0])
order by: T0 ASC
limit: 4
output: mask_id, score
`,
		},
		{
			name: "agg_bound",
			sql:  `SELECT image_id, MEAN(CP(mask, object, ?, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 5`,
			args: []any{0.6},
			wantUnbound: `plan: aggregation
source: masks
targets: all
group by: image_id
terms:
  T0 = CP(mask, object, [?1, 1])
aggregate: a = MEAN(T0)
order by: a DESC
limit: 5
output: image_id, a
`,
			wantBind: `plan: aggregation
source: masks
targets: all
group by: image_id
terms:
  T0 = CP(mask, object, [0.6, 1.0])
aggregate: a = MEAN(T0)
order by: a DESC
limit: 5
output: image_id, a
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := db.Explain(tc.sql)
			if err != nil {
				t.Fatalf("Explain(%q): %v", tc.sql, err)
			}
			if got != tc.wantUnbound {
				t.Fatalf("unbound Explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.wantUnbound)
			}
			got, err = db.Explain(tc.sql, tc.args...)
			if err != nil {
				t.Fatalf("Explain(%q, %v): %v", tc.sql, tc.args, err)
			}
			if got != tc.wantBind {
				t.Fatalf("bound Explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.wantBind)
			}
		})
	}
}

// TestBindErrors pins the bind-time checking contract: arity, type
// and per-site range errors all surface as *BindError before any
// execution happens.
func TestBindErrors(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()
	cases := []struct {
		name, sql string
		args      []any
		want      string
	}{
		{"arity_low", `SELECT mask_id FROM masks WHERE CP(mask, full, ?, 1.0) > 5`, nil,
			"bind: statement has 1 parameter(s), got 0 argument(s)"},
		{"arity_high", `SELECT mask_id FROM masks LIMIT ?`, []any{1, 2},
			"bind: statement has 1 parameter(s), got 2 argument(s)"},
		{"cp_bound_range", `SELECT mask_id FROM masks WHERE CP(mask, full, ?, 1.0) > 5`, []any{1.5},
			"bind ?1: CP value bounds must lie in [0, 1], got 1.5"},
		{"cp_empty_range", `SELECT mask_id FROM masks WHERE CP(mask, full, ?, ?) > 5`, []any{0.9, 0.2},
			"bind ?2: CP value range is empty: lo 0.9 > hi 0.2"},
		{"limit_fractional", `SELECT mask_id FROM masks LIMIT ?`, []any{2.5},
			"bind ?1: LIMIT must be a non-negative integer, got 2.5"},
		{"limit_negative", `SELECT mask_id FROM masks LIMIT ?`, []any{-1},
			"bind ?1: LIMIT must be a non-negative integer, got -1"},
		{"meta_fractional", `SELECT mask_id FROM masks WHERE model_id = ?`, []any{1.5},
			"bind ?1: model_id compares against an integer, got 1.5"},
		{"bad_type", `SELECT mask_id FROM masks LIMIT ?`, []any{"ten"},
			"bind ?1: unsupported argument type string (numeric types only)"},
		{"not_finite", `SELECT mask_id FROM masks LIMIT ?`, []any{math.NaN()},
			"bind ?1: argument must be a finite number, got NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := db.Query(ctx, tc.sql, tc.args...)
			if err == nil {
				t.Fatalf("Query(%q, %v) succeeded, want bind error", tc.sql, tc.args)
			}
			var be *BindError
			if !errors.As(err, &be) {
				t.Fatalf("Query(%q) returned %T, want *BindError: %v", tc.sql, err, err)
			}
			if err.Error() != tc.want {
				t.Fatalf("error mismatch:\ngot  %s\nwant %s", err, tc.want)
			}
		})
	}
}

// TestSplitStatements pins the lexer-driven statement splitting: a
// ';' inside a string literal never cuts a statement (the naive
// strings.Split it replaced corrupted exactly that case).
func TestSplitStatements(t *testing.T) {
	got, err := SplitStatements("SELECT mask_id FROM masks WHERE note = 'a;b' ; \n SELECT mask_id FROM masks LIMIT 3;;")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"SELECT mask_id FROM masks WHERE note = 'a;b'",
		"SELECT mask_id FROM masks LIMIT 3",
	}
	if len(got) != len(want) {
		t.Fatalf("SplitStatements returned %d statements %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statement %d = %q, want %q", i, got[i], want[i])
		}
	}

	if out, err := SplitStatements("   \n  "); err != nil || len(out) != 0 {
		t.Fatalf("blank input: got %q, %v", out, err)
	}
	if _, err := SplitStatements("SELECT mask_id FROM masks WHERE note = 'oops"); err == nil {
		t.Fatal("unterminated string should fail to split")
	} else if err.Error() != "1:40: unterminated string literal" {
		t.Fatalf("unterminated string error = %q", err)
	}
}

// TestParseErrorsGolden pins the error messages for malformed queries.
func TestParseErrorsGolden(t *testing.T) {
	db := openGolden(t)
	cases := []struct {
		name, sql, want string
	}{
		{"not_select", `DELETE FROM masks`,
			`1:1: expected SELECT, got "DELETE"`},
		{"misspelled_from", `SELECT mask_id FORM masks`,
			`1:16: expected FROM, got "FORM"`},
		{"unknown_table", `SELECT mask_id FROM pixels`,
			`1:21: unknown table "pixels" (only "masks" exists)`},
		{"cp_bad_first_arg", `SELECT mask_id FROM masks WHERE CP(roi, object, 0.8, 1.0) > 5`,
			`1:36: CP's first argument must be mask, got "roi"`},
		{"cp_missing_arg", `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8) > 5`,
			`1:53: expected a comma in CP(mask, region, lo, hi), got ")"`},
		{"cp_bad_region", `SELECT mask_id FROM masks WHERE CP(mask, blob, 0.8, 1.0) > 5`,
			`1:42: unknown region "blob" (want object, full, or rect(x0,y0,x1,y1))`},
		{"cp_range_out_of_bounds", `SELECT mask_id FROM masks WHERE CP(mask, full, 0.8, 1.5) > 5`,
			`1:53: CP value bounds must lie in [0, 1], got 1.5`},
		{"cp_empty_range", `SELECT mask_id FROM masks WHERE CP(mask, full, 0.9, 0.2) > 5`,
			`1:53: CP value range is empty: lo 0.9 > hi 0.2`},
		{"cp_equality", `SELECT mask_id FROM masks WHERE CP(mask, full, 0.5, 1.0) = 5`,
			`1:58: CP predicates support > >= < <=, got "="`},
		{"meta_inequality", `SELECT mask_id FROM masks WHERE model_id > 1`,
			`1:42: metadata conditions support = and !=, got ">"`},
		{"unknown_where_column", `SELECT mask_id FROM masks WHERE flavor = 1`,
			`1:33: unknown column "flavor" in WHERE (metadata columns: mask_id, image_id, model_id, mask_type, label, pred, modified, mispredicted)`},
		{"bad_limit", `SELECT mask_id FROM masks LIMIT many`,
			`1:33: expected a row count after LIMIT, got "many"`},
		{"group_without_agg", `SELECT image_id FROM masks GROUP BY image_id`,
			`1:37: GROUP BY needs an aggregate (MEAN, SUM, MIN, MAX) in the SELECT list`},
		{"order_by_unknown_alias", `SELECT mask_id FROM masks ORDER BY score DESC`,
			`1:36: ORDER BY score does not name a selected CP(...) alias`},
		{"trailing_garbage", `SELECT mask_id FROM masks LIMIT 5 5`,
			`1:35: unexpected trailing input starting at "5"`},
		{"stray_character", `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > #`,
			`1:62: unexpected character "#"`},
		{"placeholder_in_rect", `SELECT mask_id FROM masks WHERE CP(mask, rect(?,0,4,4), 0.5, 1.0) > 5`,
			`1:47: expected a rect coordinate, got "?"`},
		{"placeholder_as_column", `SELECT ? FROM masks`,
			`1:8: expected a column or expression in SELECT, got "?"`},
		{"empty_query", `   `,
			`1:1: empty query`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := db.Query(t.Context(), tc.sql)
			if err == nil {
				t.Fatalf("Query(%q) succeeded, want error %q", tc.sql, tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error mismatch for %q:\ngot  %s\nwant %s", tc.sql, err, tc.want)
			}
		})
	}
}

// TestQueryAgainstBruteForce checks that SQL execution agrees with
// direct evaluation via the public primitives.
func TestQueryAgainstBruteForce(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()

	res, err := db.Query(ctx, `SELECT mask_id FROM masks WHERE CP(mask, object, 0.6, 1.0) > 40 AND model_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind.String() != "filter" {
		t.Fatalf("kind = %v, want filter", res.Kind)
	}
	var want []int64
	for _, e := range db.Entries() {
		if e.ModelID != 1 {
			continue
		}
		m, err := db.LoadMask(e.MaskID)
		if err != nil {
			t.Fatal(err)
		}
		if CP(m, e.Object, ValueRange{Lo: 0.6, Hi: 1.0}) > 40 {
			want = append(want, e.MaskID)
		}
	}
	if len(res.IDs) != len(want) {
		t.Fatalf("filter returned %d ids, brute force %d", len(res.IDs), len(want))
	}
	for i := range want {
		if res.IDs[i] != want[i] {
			t.Fatalf("filter ids differ at %d: %d vs %d", i, res.IDs[i], want[i])
		}
	}
	if res.Stats.Targets == 0 {
		t.Fatal("stats should count targets")
	}

	agg, err := db.Query(ctx, `SELECT image_id, MEAN(CP(mask, object, 0.5, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Kind.String() != "aggregation" || len(agg.Ranked) != 5 {
		t.Fatalf("aggregation returned kind %v with %d rows", agg.Kind, len(agg.Ranked))
	}
	for i := 1; i < len(agg.Ranked); i++ {
		if agg.Ranked[i].Score > agg.Ranked[i-1].Score {
			t.Fatal("aggregation results not sorted DESC")
		}
	}
}

// TestLimitSemantics pins SQL LIMIT behavior: 0 means zero rows (and
// touches no mask), and filter plans honor LIMIT too.
func TestLimitSemantics(t *testing.T) {
	db := openGolden(t)
	ctx := t.Context()

	res, err := db.Query(ctx, `SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.5, 1.0) DESC LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 0 || len(res.IDs) != 0 {
		t.Fatalf("LIMIT 0 returned %d ranked / %d ids, want none", len(res.Ranked), len(res.IDs))
	}
	if res.Stats.Loaded != 0 {
		t.Fatalf("LIMIT 0 loaded %d masks, want 0", res.Stats.Loaded)
	}

	res, err = db.Query(ctx, `SELECT mask_id FROM masks LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 5 {
		t.Fatalf("filter LIMIT 5 returned %d ids", len(res.IDs))
	}
}

// TestExplainDoesNotTouchData ensures Explain is a pure compile step.
func TestExplainDoesNotTouchData(t *testing.T) {
	db := openGolden(t)
	before := db.st.Stats()
	if _, err := db.Explain(`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 10`); err != nil {
		t.Fatal(err)
	}
	if s := db.st.Stats().Sub(before); s.MasksLoaded != 0 || s.RegionReads != 0 {
		t.Fatalf("Explain read data: %+v", s)
	}
}

// TestErrorsArePositioned sanity-checks the ParseError type.
func TestErrorsArePositioned(t *testing.T) {
	db := openGolden(t)
	_, err := db.Explain("SELECT mask_id\nFROM masks WHERE bogus = 1")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.HasPrefix(err.Error(), "2:18: ") {
		t.Fatalf("multi-line position wrong: %s", err)
	}
}
