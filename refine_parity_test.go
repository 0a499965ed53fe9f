package masksearch

import (
	"fmt"
	"testing"
)

// parityQueries is a fixed statement list over the tiny preset: object
// and rect regions, edge-aligned and off-edge ranges, a band, a
// two-term predicate, both ranking kinds and a pre-filtered ranking.
var parityQueries = []string{
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`,
	`SELECT mask_id FROM masks WHERE CP(mask, rect(3,5,27,22), 0.35, 1.0) > 60 AND model_id = 1`,
	`SELECT mask_id FROM masks WHERE CP(mask, rect(0,0,16,16), 0.3, 0.55) > 12`,
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.5, 1.0) > 30 AND CP(mask, full, 0.25, 1.0) < 400`,
	`SELECT mask_id FROM masks ORDER BY CP(mask, rect(4,4,30,29), 0.45, 1.0) DESC LIMIT 10`,
	`SELECT mask_id FROM masks ORDER BY CP(mask, object, 0.6, 1.0) ASC LIMIT 7`,
	`SELECT image_id, MEAN(CP(mask, rect(2,9,25,31), 0.55, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 8`,
	`SELECT label, SUM(CP(mask, object, 0.7, 1.0)) AS s FROM masks WHERE mispredicted = false GROUP BY label ORDER BY s ASC LIMIT 3`,
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.4, 1.0) > 50 ORDER BY CP(mask, full, 0.65, 1.0) DESC LIMIT 5`,
}

// parityWant is what the parent commit (4a0393e: whole-ROI ExactCP
// verification, unplanned CPBounds) reports for parityQueries under
// Workers = 1 on an eagerly indexed tiny preset: each query's Stats,
// then the masks the store loaded for it and the bytes it read, raw and
// rle. Refinement changes how a loaded mask is scanned, never which
// masks are loaded or what a load is charged, so every count repeats.
var parityWant = []string{
	"targets=192 indexed=192 accepted=31 rejected=106 loaded=55 fml=0.286 | 55 masks 56320 bytes | 55 masks 45244 bytes",
	"targets=64 indexed=64 accepted=21 rejected=13 loaded=30 fml=0.469 | 30 masks 30720 bytes | 30 masks 23438 bytes",
	"targets=192 indexed=192 accepted=91 rejected=95 loaded=6 fml=0.031 | 6 masks 6144 bytes | 6 masks 4511 bytes",
	"targets=192 indexed=192 accepted=83 rejected=31 loaded=78 fml=0.406 | 78 masks 79872 bytes | 78 masks 57813 bytes",
	"targets=192 indexed=192 accepted=0 rejected=122 loaded=70 fml=0.365 | 70 masks 71680 bytes | 70 masks 62654 bytes",
	"targets=192 indexed=192 accepted=11 rejected=121 loaded=60 fml=0.312 | 60 masks 61440 bytes | 60 masks 41751 bytes",
	"targets=192 indexed=192 accepted=0 rejected=108 loaded=84 fml=0.438 | 84 masks 86016 bytes | 84 masks 72516 bytes",
	"targets=172 indexed=172 accepted=5 rejected=75 loaded=92 fml=0.535 | 92 masks 94208 bytes | 92 masks 69725 bytes",
	"targets=192 indexed=325 accepted=72 rejected=153 loaded=100 fml=0.521 | 100 masks 102400 bytes | 100 masks 81081 bytes",
}

// parityTopK is the parent's answer to parityQueries[4], which the
// worker-pool engine must return under any worker count (only its
// Stats may differ: τ refinement skips loads).
const parityTopK = "[{148 188} {67 187} {184 179} {112 167} {110 164} {19 163} {92 161} {37 159} {185 159} {149 158}]"

func TestRefinementKeepsParentCounts(t *testing.T) {
	dbs := make([]*DB, 2)
	for i, codec := range []string{"", CodecRLE} {
		dir := t.TempDir()
		if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 1, codec); err != nil {
			t.Fatal(err)
		}
		db, err := OpenWith(dir, Options{Workers: 1, EagerIndex: true, PlanCacheEntries: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		dbs[i] = db
	}
	for qi, sql := range parityQueries {
		var got string
		for _, db := range dbs {
			before := db.ReadStats()
			res, err := db.Query(t.Context(), sql)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			rs := db.ReadStats()
			if got == "" {
				got = res.Stats.String()
			} else if got[:len(res.Stats.String())] != res.Stats.String() {
				t.Errorf("query %d: rle stats %v differ from raw: %s", qi, res.Stats, got)
			}
			got += fmt.Sprintf(" | %d masks %d bytes", rs.MasksLoaded-before.MasksLoaded, rs.BytesRead-before.BytesRead)
		}
		if got != parityWant[qi] {
			t.Errorf("query %d:\n got %s\nwant %s", qi, got, parityWant[qi])
		}
	}
	for _, db := range dbs {
		for _, workers := range []int{1, 2, 8} {
			res, err := db.Query(t.Context(), parityQueries[4], WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Ranked); got != parityTopK {
				t.Errorf("codec %q workers %d: ranking %s, parent returned %s", db.Codec(), workers, got, parityTopK)
			}
		}
	}
}
