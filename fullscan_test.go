// The paper's evaluation tools, kept beside the tests that use them:
// FullScan, the unindexed NumPy baseline of §4.1 and the engine's
// oracle, and the random query generators of §4.3 and §4.5.
package masksearch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// fullScan loads every target mask whole and counts each term on it
// exactly, never consulting a CHI.
type fullScan struct{ st store.MaskStore }

func (fullScan) Name() string { return "FullScan" }

// vals loads id and counts every term on it.
func (f fullScan) vals(id int64, terms []core.CPTerm, st *core.Stats) ([]int64, error) {
	m, err := f.st.LoadMask(id)
	if err != nil {
		return nil, err
	}
	defer f.st.ReleaseMask(m)
	st.Loaded++
	out := make([]int64, len(terms))
	for i, t := range terms {
		out[i] = t.Eval(id, m)
	}
	return out, nil
}

func (f fullScan) Filter(_ context.Context, targets []int64, terms []core.CPTerm, pred core.Pred) ([]int64, core.Stats, error) {
	st := core.Stats{Targets: len(targets)}
	var out []int64
	for _, id := range targets {
		vals, err := f.vals(id, terms, &st)
		if err != nil {
			return nil, st, err
		}
		if pred.Eval(vals) {
			out = append(out, id)
		}
	}
	return out, st, nil
}

func (f fullScan) TopK(_ context.Context, targets []int64, terms []core.CPTerm, score core.Term, k int, ord core.Order) ([]core.Scored, core.Stats, error) {
	st := core.Stats{Targets: len(targets)}
	scored := make([]core.Scored, 0, len(targets))
	for _, id := range targets {
		vals, err := f.vals(id, terms, &st)
		if err != nil {
			return nil, st, err
		}
		scored = append(scored, core.Scored{ID: id, Score: float64(vals[score])})
	}
	return bestK(scored, k, ord), st, nil
}

func (f fullScan) AggTopK(_ context.Context, groups []core.Group, terms []core.CPTerm, score core.Term, agg core.Agg, k int, ord core.Order) ([]core.Scored, core.Stats, error) {
	var st core.Stats
	scored := make([]core.Scored, 0, len(groups))
	for _, g := range groups {
		if len(g.IDs) == 0 {
			continue
		}
		st.Targets += len(g.IDs)
		vals := make([]float64, len(g.IDs))
		for i, id := range g.IDs {
			ev, err := f.vals(id, terms, &st)
			if err != nil {
				return nil, st, err
			}
			vals[i] = float64(ev[score])
		}
		scored = append(scored, core.Scored{ID: g.Key, Score: core.AggExact(agg, vals)})
	}
	return bestK(scored, k, ord), st, nil
}

// bestK sorts scored in ord and keeps its first k (all when k <= 0).
func bestK(scored []core.Scored, k int, ord core.Order) []core.Scored {
	core.SortScored(scored, ord)
	if k > 0 && k < len(scored) {
		scored = scored[:k]
	}
	return scored
}

// filterQuery is one random CP(mask, roi, vr) > threshold query.
type filterQuery struct {
	targets []int64
	// useObject takes each mask's object box as the region instead of
	// roi.
	useObject bool
	roi       core.Rect
	vr        core.ValueRange
	thresh    int64
}

// terms returns the query's CP term; the catalog resolves per-mask
// object boxes.
func (q filterQuery) terms(cat *store.Catalog) []core.CPTerm {
	if q.useObject {
		return []core.CPTerm{{Name: fmt.Sprintf("CP(mask, object, %v)", q.vr), Region: cat.ObjectROI(), Range: q.vr}}
	}
	return rectTerm(q.roi, q.vr)
}

func (q filterQuery) pred() core.Pred { return core.Cmp{T: 0, Op: core.OpGt, C: q.thresh} }

// sqlParts renders the region in msquery syntax and the value range
// clamped to the dialect's [0, 1]; the clamp selects the same pixels,
// since any Hi >= 1 closes the top of the range.
func (q filterQuery) sqlParts() (region string, vr core.ValueRange) {
	region = "object"
	if !q.useObject {
		region = fmt.Sprintf("rect(%d,%d,%d,%d)", q.roi.X0, q.roi.Y0, q.roi.X1, q.roi.Y1)
	}
	vr = q.vr
	vr.Hi = min(vr.Hi, 1.0)
	return region, vr
}

// sql renders the query over every mask as a statement with the value
// range and threshold as placeholders, and their arguments.
func (q filterQuery) sql() (string, []any) {
	region, vr := q.sqlParts()
	return fmt.Sprintf("SELECT mask_id FROM masks WHERE CP(mask, %s, ?, ?) > ?", region), []any{vr.Lo, vr.Hi, q.thresh}
}

// literalSQL renders the same statement as sql with every value
// inlined.
func (q filterQuery) literalSQL() string {
	region, vr := q.sqlParts()
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	return fmt.Sprintf("SELECT mask_id FROM masks WHERE CP(mask, %s, %s, %s) > %d", region, num(vr.Lo), num(vr.Hi), q.thresh)
}

// rankQuery ranks masks (targets) or groups by one rect term.
type rankQuery struct {
	targets []int64
	groups  []core.Group
	roi     core.Rect
	vr      core.ValueRange
	k       int
	order   core.Order
}

func (q rankQuery) terms() []core.CPTerm { return rectTerm(q.roi, q.vr) }

func rectTerm(roi core.Rect, vr core.ValueRange) []core.CPTerm {
	return []core.CPTerm{{Name: fmt.Sprintf("CP(mask, %v, %v)", roi, vr), Region: core.FixedRegion(roi), Range: vr}}
}

// randRect draws a rectangle covering roughly 10–60% of each axis.
func randRect(rng *rand.Rand, w, h int) core.Rect {
	rw := max(1, w/10+rng.Intn(max(1, w/2)))
	rh := max(1, h/10+rng.Intn(max(1, h/2)))
	x0 := rng.Intn(max(1, w-rw+1))
	y0 := rng.Intn(max(1, h-rh+1))
	return core.Rect{X0: x0, Y0: y0, X1: x0 + rw, Y1: y0 + rh}
}

// randRange draws a value range; most are top-closed at 1.0 (the
// paper's saliency queries), the rest interior bands.
func randRange(rng *rand.Rand) core.ValueRange {
	lo := 0.05 * float64(5+rng.Intn(13)) // 0.25 .. 0.85 in 0.05 steps
	if rng.Float64() < 0.8 {
		return core.ValueRange{Lo: lo, Hi: 1.0}
	}
	return core.ValueRange{Lo: lo, Hi: lo + 0.1 + 0.05*float64(rng.Intn(3))}
}

// randomFilter draws one §4.3 Filter query over ids.
func randomFilter(rng *rand.Rand, w, h int, ids []int64) filterQuery {
	q := filterQuery{targets: ids, vr: randRange(rng)}
	if rng.Float64() < 0.5 {
		q.useObject = true
		// Thresholds scale with a typical object box (~1/8 of the image).
		q.thresh = int64(rng.Float64() * float64(w*h) / 8)
	} else {
		q.roi = randRect(rng, w, h)
		q.thresh = int64(rng.Float64() * float64(q.roi.Area()) * 0.6)
	}
	return q
}

// randomRank draws one §4.3 Top-K query over ids, or aggregation query
// over groups when groups is set.
func randomRank(rng *rand.Rand, w, h int, ids []int64, groups []core.Group) rankQuery {
	q := rankQuery{targets: ids, groups: groups, roi: randRect(rng, w, h), vr: randRange(rng), order: core.Desc}
	if groups != nil {
		q.k = 5 + rng.Intn(20)
	} else {
		q.k = 5 + rng.Intn(30)
	}
	if rng.Float64() < 0.2 {
		q.order = core.Asc
	}
	return q
}

// multiQuery draws an n-query workload (§4.5). Each query targets a
// random third of the dataset; with probability pSeen it revisits the
// targets and region of an earlier query, so an incrementally built
// index can amortize its verification work.
func multiQuery(rng *rand.Rand, cat *store.Catalog, w, h, n int, pSeen float64) []filterQuery {
	ids := cat.MaskIDs(nil)
	out := make([]filterQuery, 0, n)
	for i := 0; i < n; i++ {
		if len(out) > 0 && rng.Float64() < pSeen {
			q := out[rng.Intn(len(out))]
			// Same masks and region, fresh selectivity.
			area := float64(q.roi.Area())
			if q.useObject {
				area = float64(w * h / 8)
			}
			q.vr = randRange(rng)
			q.thresh = int64(rng.Float64() * area * 0.6)
			out = append(out, q)
			continue
		}
		// A sorted sample of a third of the ids keeps storage-order
		// locality deterministic.
		sample := ids
		if k := max(1, len(ids)/3); k < len(ids) {
			sample = make([]int64, k)
			for j, p := range rng.Perm(len(ids))[:k] {
				sample[j] = ids[p]
			}
			slices.Sort(sample)
		}
		out = append(out, randomFilter(rng, w, h, sample))
	}
	return out
}

// TestPaperQueriesMatchFullScan: on both reduced datasets, raw and
// RLE, sequential and with 8 workers, MaskSearch answers the Table 1
// queries and seeded random §4.3 Filter, Top-K and aggregation queries
// exactly as FullScan does.
func TestPaperQueriesMatchFullScan(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []store.Spec{wildsQuick, imagenetQuick} {
		for _, codec := range []string{store.CodecRaw, store.CodecRLE} {
			d := openBenchDataset(t, spec, codec)
			oracle := fullScan{d.st}
			ids, groups := d.cat.MaskIDs(nil), d.cat.GroupByImage(nil)
			queries := tableQueries(d)
			rng := rand.New(rand.NewSource(benchSeed))
			for i := range 12 {
				f := randomFilter(rng, spec.W, spec.H, ids)
				queries = append(queries, tableQuery{name: fmt.Sprintf("filter%d", i), targets: f.targets, terms: f.terms(d.cat), pred: f.pred()})
				var g []core.Group
				if i%2 == 1 {
					g = groups
				}
				r := randomRank(rng, spec.W, spec.H, ids, g)
				queries = append(queries, tableQuery{name: fmt.Sprintf("rank%d", i), targets: r.targets, groups: r.groups, terms: r.terms(), k: r.k, order: r.order})
			}
			for _, ex := range []core.Exec{{}, {Workers: 8}} {
				ms := maskSearch{d.env(ex)}
				for _, q := range queries {
					gotIDs, gotRanked, err := q.run(ctx, ms)
					if err != nil {
						t.Fatal(err)
					}
					wantIDs, wantRanked, err := q.run(ctx, oracle)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotRanked, wantRanked) {
						t.Fatalf("%s/codec=%q/workers=%d %s: MaskSearch %v %v, FullScan %v %v",
							spec.Name, codec, ex.Workers, q.name, gotIDs, gotRanked, wantIDs, wantRanked)
					}
				}
			}
		}
	}
}
