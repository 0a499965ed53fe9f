// Package baseline implements the three comparison systems of the
// paper's evaluation (§4.1), sharing the core query semantics but
// never consulting a CHI:
//
//   - FullScan: load every target mask fully and evaluate CP on the
//     dense array (the NumPy baseline).
//   - TupleScan: load every target mask and evaluate region membership
//     pixel-by-pixel, emulating a relational (mask, x, y, v) tuple
//     table (the PostgreSQL baseline).
//   - ArraySlice: read only each term's region bytes from disk
//     (the NumPy memmap-slicing baseline).
package baseline

import (
	"context"
	"fmt"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

type mode int

const (
	fullScan mode = iota
	tupleScan
	arraySlice
)

// Engine evaluates queries without an index.
type Engine struct {
	name string
	st   *store.Store
	mode mode
}

// NewFullScan returns the full-array-load baseline.
func NewFullScan(st *store.Store) *Engine { return &Engine{"FullScan", st, fullScan} }

// NewTupleScan returns the tuple-at-a-time baseline.
func NewTupleScan(st *store.Store) *Engine { return &Engine{"TupleScan", st, tupleScan} }

// NewArraySlice returns the region-slicing baseline.
func NewArraySlice(st *store.Store) *Engine { return &Engine{"ArraySlice", st, arraySlice} }

// Name returns the baseline's display name.
func (e *Engine) Name() string { return e.name }

// vals computes every term exactly for one mask, using the engine's
// access pattern.
func (e *Engine) vals(id int64, terms []core.CPTerm, st *core.Stats) ([]int64, error) {
	out := make([]int64, len(terms))
	switch e.mode {
	case fullScan:
		m, err := e.st.LoadMask(id)
		if err != nil {
			return nil, err
		}
		defer e.st.ReleaseMask(m)
		st.Loaded++
		for i, t := range terms {
			out[i] = t.Eval(id, m)
		}
	case tupleScan:
		m, err := e.st.LoadMask(id)
		if err != nil {
			return nil, err
		}
		defer e.st.ReleaseMask(m)
		st.Loaded++
		for i, t := range terms {
			roi := t.Region(id)
			var n int64
			// Every pixel is treated as a tuple: the region predicate
			// is re-evaluated per tuple rather than sliced up front.
			for y := 0; y < m.H; y++ {
				for x := 0; x < m.W; x++ {
					if roi.ContainsPoint(x, y) && t.Range.Contains(float64(m.At(x, y))) {
						n++
					}
				}
			}
			out[i] = n
		}
	case arraySlice:
		for i, t := range terms {
			sub, err := e.st.LoadRegion(id, t.Region(id))
			if err != nil {
				return nil, err
			}
			out[i] = core.ExactCP(sub, sub.Bounds(), t.Range)
			// Region masks are standalone copies the caller owns;
			// released anyway to keep the ownership contract uniform.
			e.st.ReleaseMask(sub)
		}
		st.Loaded++
	default:
		return nil, fmt.Errorf("baseline: unknown mode %d", e.mode)
	}
	return out, nil
}

// Filter returns the targets satisfying pred, like core.Filter but
// with every mask verified.
func (e *Engine) Filter(ctx context.Context, targets []int64, terms []core.CPTerm, pred core.Pred) ([]int64, core.Stats, error) {
	st := core.Stats{Targets: len(targets)}
	if pred == nil {
		pred = core.And{}
	}
	var out []int64
	for i, id := range targets {
		if err := core.CheckCtx(ctx, i); err != nil {
			return nil, st, err
		}
		if len(terms) == 0 {
			out = append(out, id)
			continue
		}
		vals, err := e.vals(id, terms, &st)
		if err != nil {
			return nil, st, err
		}
		if pred.Eval(vals) {
			out = append(out, id)
		}
	}
	return out, st, nil
}

// TopK ranks targets by terms[score], verifying every mask.
func (e *Engine) TopK(ctx context.Context, targets []int64, terms []core.CPTerm, score core.Term, k int, ord core.Order) ([]core.Scored, core.Stats, error) {
	st := core.Stats{Targets: len(targets)}
	scored := make([]core.Scored, 0, len(targets))
	for i, id := range targets {
		if err := core.CheckCtx(ctx, i); err != nil {
			return nil, st, err
		}
		vals, err := e.vals(id, terms, &st)
		if err != nil {
			return nil, st, err
		}
		scored = append(scored, core.Scored{ID: id, Score: float64(vals[score])})
	}
	core.SortScored(scored, ord)
	if k > 0 && k < len(scored) {
		scored = scored[:k]
	}
	return scored, st, nil
}

// AggTopK aggregates terms[score] per group and ranks the groups,
// verifying every mask.
func (e *Engine) AggTopK(ctx context.Context, groups []core.Group, terms []core.CPTerm, score core.Term, agg core.Agg, k int, ord core.Order) ([]core.Scored, core.Stats, error) {
	var st core.Stats
	scored := make([]core.Scored, 0, len(groups))
	for gi, g := range groups {
		if err := core.CheckCtx(ctx, gi); err != nil {
			return nil, st, err
		}
		if len(g.IDs) == 0 {
			continue
		}
		st.Targets += len(g.IDs)
		vals := make([]float64, len(g.IDs))
		for i, id := range g.IDs {
			ev, err := e.vals(id, terms, &st)
			if err != nil {
				return nil, st, err
			}
			vals[i] = float64(ev[score])
		}
		scored = append(scored, core.Scored{ID: g.Key, Score: core.AggExact(agg, vals)})
	}
	core.SortScored(scored, ord)
	if k > 0 && k < len(scored) {
		scored = scored[:k]
	}
	return scored, st, nil
}
