package bench

import (
	"context"
	"fmt"

	"masksearch/internal/baseline"
	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Q identifies one of the five Table 1 benchmark queries. Their
// concrete definitions on the synthetic datasets are documented in
// DESIGN.md:
//
//	Q1 — error analysis Filter: model-1 masks with high object saliency
//	Q2 — Top-K masks by overall high-saliency area
//	Q3 — per-image aggregation: mean object saliency, top images
//	Q4 — mispredicted masks whose object box the model ignored
//	Q5 — adversarial detection: saturated-patch filter over all masks
type Q int

const (
	Q1 Q = iota + 1
	Q2
	Q3
	Q4
	Q5
)

func (q Q) String() string { return fmt.Sprintf("Q%d", int(q)) }

// qKind distinguishes the executor a query needs.
type qKind int

const (
	kindFilter qKind = iota
	kindTopK
	kindAgg
)

// qplan is a fully resolved Table 1 query.
type qplan struct {
	kind    qKind
	targets []int64
	groups  []core.Group
	terms   []core.CPTerm
	pred    core.Pred
	k       int
	order   core.Order
}

// plan resolves q against this dataset's catalog and dimensions.
func (d *DatasetEnv) plan(q Q) (qplan, error) {
	w, h := d.Params.W, d.Params.H
	objTerm := func(vr core.ValueRange) core.CPTerm {
		return core.CPTerm{
			Name:   fmt.Sprintf("CP(mask, object, %v)", vr),
			Region: d.Cat.ObjectROI(),
			Range:  vr,
		}
	}
	fullTerm := func(vr core.ValueRange) core.CPTerm {
		return core.CPTerm{
			Name:   fmt.Sprintf("CP(mask, full, %v)", vr),
			Region: core.FixedRegion(core.Rect{X0: 0, Y0: 0, X1: w, Y1: h}),
			Range:  vr,
		}
	}
	saliency := func(e *store.Entry) bool { return e.MaskType == store.TypeSaliency }
	switch q {
	case Q1:
		return qplan{
			kind:    kindFilter,
			targets: d.Cat.MaskIDs(func(e *store.Entry) bool { return saliency(e) && e.ModelID == 1 }),
			terms:   []core.CPTerm{objTerm(core.ValueRange{Lo: 0.8, Hi: 1.0})},
			pred:    core.Cmp{T: 0, Op: core.OpGt, C: int64(w * h / 64)},
		}, nil
	case Q2:
		return qplan{
			kind:    kindTopK,
			targets: d.Cat.MaskIDs(func(e *store.Entry) bool { return saliency(e) && e.ModelID == 1 }),
			terms:   []core.CPTerm{fullTerm(core.ValueRange{Lo: 0.6, Hi: 1.0})},
			k:       25,
			order:   core.Desc,
		}, nil
	case Q3:
		return qplan{
			kind:   kindAgg,
			groups: d.Cat.GroupByImage(saliency),
			terms:  []core.CPTerm{objTerm(core.ValueRange{Lo: 0.5, Hi: 1.0})},
			k:      25,
			order:  core.Desc,
		}, nil
	case Q4:
		return qplan{
			kind:    kindFilter,
			targets: d.Cat.MaskIDs(func(e *store.Entry) bool { return saliency(e) && e.Mispredicted() }),
			terms:   []core.CPTerm{objTerm(core.ValueRange{Lo: 0.7, Hi: 1.0})},
			pred:    core.Cmp{T: 0, Op: core.OpLt, C: int64(w * h / 32)},
		}, nil
	case Q5:
		patch := max(2, w/8)
		return qplan{
			kind:    kindFilter,
			targets: d.Cat.MaskIDs(saliency),
			terms:   []core.CPTerm{fullTerm(core.ValueRange{Lo: 0.94, Hi: 1.0})},
			pred:    core.Cmp{T: 0, Op: core.OpGt, C: int64(patch * patch / 2)},
		}, nil
	}
	return qplan{}, fmt.Errorf("bench: unknown query %v", q)
}

// RunMaskSearch executes one Table 1 query through the MaskSearch
// engine and returns its result and pipeline stats.
func (d *DatasetEnv) RunMaskSearch(ctx context.Context, env *core.Env, q Q) (core.Stats, error) {
	p, err := d.plan(q)
	if err != nil {
		return core.Stats{}, err
	}
	switch p.kind {
	case kindFilter:
		_, st, err := core.Filter(ctx, env, p.targets, p.terms, p.pred)
		return st, err
	case kindTopK:
		_, st, err := core.TopK(ctx, env, p.targets, p.terms, 0, p.k, p.order)
		return st, err
	default:
		_, st, err := core.AggTopK(ctx, env, p.groups, p.terms, 0, core.Mean, p.k, p.order)
		return st, err
	}
}

// RunBaseline executes one Table 1 query through a baseline engine.
func (d *DatasetEnv) RunBaseline(ctx context.Context, e *baseline.Engine, q Q) (core.Stats, error) {
	p, err := d.plan(q)
	if err != nil {
		return core.Stats{}, err
	}
	switch p.kind {
	case kindFilter:
		_, st, err := e.Filter(ctx, p.targets, p.terms, p.pred)
		return st, err
	case kindTopK:
		_, st, err := e.TopK(ctx, p.targets, p.terms, 0, p.k, p.order)
		return st, err
	default:
		_, st, err := e.AggTopK(ctx, p.groups, p.terms, 0, core.Mean, p.k, p.order)
		return st, err
	}
}
