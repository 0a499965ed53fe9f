// Package workload generates the random queries of the paper's §4.3
// evaluation: Filter, Top-K and aggregation queries with random
// regions, value ranges and thresholds, plus the multi-query workloads
// of §4.5 whose repeated targets reward incremental indexing.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// FilterQuery is one randomized CP(mask, roi, vr) > threshold query.
type FilterQuery struct {
	Targets []int64
	// UseObject selects each mask's object box as the region instead
	// of the fixed ROI.
	UseObject bool
	ROI       core.Rect
	VR        core.ValueRange
	Thresh    int64
}

// Terms returns the query's single CP term; the catalog resolves
// per-mask object regions.
func (q FilterQuery) Terms(cat *store.Catalog) []core.CPTerm {
	region := core.FixedRegion(q.ROI)
	name := fmt.Sprintf("CP(mask, %v, %v)", q.ROI, q.VR)
	if q.UseObject {
		region = cat.ObjectROI()
		name = fmt.Sprintf("CP(mask, object, %v)", q.VR)
	}
	return []core.CPTerm{{Name: name, Region: region, Range: q.VR}}
}

// Pred returns the query's threshold predicate.
func (q FilterQuery) Pred() core.Pred { return core.Cmp{T: 0, Op: core.OpGt, C: q.Thresh} }

// regionSQL renders the query's region in msquery syntax.
func (q FilterQuery) regionSQL() string {
	if q.UseObject {
		return "object"
	}
	return fmt.Sprintf("rect(%d,%d,%d,%d)", q.ROI.X0, q.ROI.Y0, q.ROI.X1, q.ROI.Y1)
}

// sqlVR clamps the value range to the dialect's [0, 1] domain. The
// clamp is semantics-preserving: core.ValueRange treats any Hi >= 1
// as the top-closed interval, so {Lo, 1.05} and {Lo, 1.0} select the
// same pixels.
func (q FilterQuery) sqlVR() core.ValueRange {
	vr := q.VR
	vr.Hi = min(vr.Hi, 1.0)
	return vr
}

// sqlNum renders a float in the msquery number syntax (plain digits
// and dot; the workload generators never produce values that would
// format with an exponent).
func sqlNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// SQL renders the query's shape as a parameterized msquery statement
// with the value range and threshold late-bound, for driving
// parameter sweeps through one prepared statement. Mask subsets are
// not expressible in the dialect, so the statement targets every
// mask; use it only for queries drawn over the full catalog (the
// §4.3 sweeps are).
func (q FilterQuery) SQL() (sql string, args []any) {
	vr := q.sqlVR()
	return fmt.Sprintf("SELECT mask_id FROM masks WHERE CP(mask, %s, ?, ?) > ?", q.regionSQL()),
		[]any{vr.Lo, vr.Hi, q.Thresh}
}

// LiteralSQL renders the same statement as SQL with every value
// inlined — the unprepared per-call form the prepared path is
// property-tested against.
func (q FilterQuery) LiteralSQL() string {
	vr := q.sqlVR()
	return fmt.Sprintf("SELECT mask_id FROM masks WHERE CP(mask, %s, %s, %s) > %d",
		q.regionSQL(), sqlNum(vr.Lo), sqlNum(vr.Hi), q.Thresh)
}

// TopKQuery ranks masks by one CP term.
type TopKQuery struct {
	Targets []int64
	ROI     core.Rect
	VR      core.ValueRange
	K       int
	Order   core.Order
}

// Terms returns the ranking term.
func (q TopKQuery) Terms() []core.CPTerm {
	return []core.CPTerm{{
		Name:   fmt.Sprintf("CP(mask, %v, %v)", q.ROI, q.VR),
		Region: core.FixedRegion(q.ROI),
		Range:  q.VR,
	}}
}

// AggQuery ranks groups by an aggregated CP term.
type AggQuery struct {
	Groups []core.Group
	ROI    core.Rect
	VR     core.ValueRange
	K      int
	Order  core.Order
}

// Terms returns the aggregated term.
func (q AggQuery) Terms() []core.CPTerm {
	return []core.CPTerm{{
		Name:   fmt.Sprintf("CP(mask, %v, %v)", q.ROI, q.VR),
		Region: core.FixedRegion(q.ROI),
		Range:  q.VR,
	}}
}

// randRect draws a rectangle covering roughly 10–60% of each axis.
func randRect(rng *rand.Rand, w, h int) core.Rect {
	rw := max(1, w/10+rng.Intn(max(1, w/2)))
	rh := max(1, h/10+rng.Intn(max(1, h/2)))
	x0 := rng.Intn(max(1, w-rw+1))
	y0 := rng.Intn(max(1, h-rh+1))
	return core.Rect{X0: x0, Y0: y0, X1: x0 + rw, Y1: y0 + rh}
}

// randRange draws a value range; most ranges are top-closed at 1.0
// (the paper's saliency queries), the rest are interior bands.
func randRange(rng *rand.Rand) core.ValueRange {
	lo := 0.05 * float64(5+rng.Intn(13)) // 0.25 .. 0.85 in 0.05 steps
	if rng.Float64() < 0.8 {
		return core.ValueRange{Lo: lo, Hi: 1.0}
	}
	return core.ValueRange{Lo: lo, Hi: lo + 0.1 + 0.05*float64(rng.Intn(3))}
}

// RandomFilter draws one §4.3 Filter query over the given targets.
func RandomFilter(rng *rand.Rand, cat *store.Catalog, w, h int, ids []int64) FilterQuery {
	q := FilterQuery{Targets: ids, VR: randRange(rng)}
	if rng.Float64() < 0.5 {
		q.UseObject = true
		// Thresholds scale with a typical object box (~1/8 of the image).
		q.Thresh = int64(rng.Float64() * float64(w*h) / 8)
	} else {
		q.ROI = randRect(rng, w, h)
		q.Thresh = int64(rng.Float64() * float64(q.ROI.Area()) * 0.6)
	}
	return q
}

// RandomTopK draws one §4.3 Top-K query.
func RandomTopK(rng *rand.Rand, w, h int, ids []int64) TopKQuery {
	q := TopKQuery{
		Targets: ids,
		ROI:     randRect(rng, w, h),
		VR:      randRange(rng),
		K:       5 + rng.Intn(30),
		Order:   core.Desc,
	}
	if rng.Float64() < 0.2 {
		q.Order = core.Asc
	}
	return q
}

// RandomAgg draws one §4.3 aggregation query over prebuilt groups.
func RandomAgg(rng *rand.Rand, w, h int, groups []core.Group) AggQuery {
	q := AggQuery{
		Groups: groups,
		ROI:    randRect(rng, w, h),
		VR:     randRange(rng),
		K:      5 + rng.Intn(20),
		Order:  core.Desc,
	}
	if rng.Float64() < 0.2 {
		q.Order = core.Asc
	}
	return q
}

// MultiQuery generates an n-query workload (§4.5). Each query targets
// a random third of the dataset; with probability pSeen a query
// revisits the targets (and region shape) of an earlier query, so an
// incrementally built index can amortize its verification work.
func MultiQuery(rng *rand.Rand, cat *store.Catalog, w, h, n int, pSeen float64) []FilterQuery {
	ids := cat.MaskIDs(nil)
	out := make([]FilterQuery, 0, n)
	for i := 0; i < n; i++ {
		if len(out) > 0 && rng.Float64() < pSeen {
			q := out[rng.Intn(len(out))]
			// Same masks and region, fresh selectivity.
			area := float64(q.ROI.Area())
			if q.UseObject {
				area = float64(w * h / 8)
			}
			q.VR = randRange(rng)
			q.Thresh = int64(rng.Float64() * area * 0.6)
			out = append(out, q)
			continue
		}
		out = append(out, RandomFilter(rng, cat, w, h, sample(rng, ids, max(1, len(ids)/3))))
	}
	return out
}

// sample draws k distinct ids, returned in ascending order.
func sample(rng *rand.Rand, ids []int64, k int) []int64 {
	if k >= len(ids) {
		return ids
	}
	perm := rng.Perm(len(ids))[:k]
	out := make([]int64, k)
	for i, p := range perm {
		out[i] = ids[p]
	}
	// Keep storage-order locality deterministic.
	slices.Sort(out)
	return out
}
