package core

import "context"

// This file holds the local stages and the primitives the distributed
// subsystem (internal/dist) builds on. A remote shard node runs exactly
// the same per-target work the local executors run — filter decisions,
// candidate bounds, τ-gated verification — and the coordinator runs the
// same ranking drivers over a remote core.Stages, so the
// scatter-gathered result is byte-identical to single-node execution.

// RegionKind discriminates the serializable region descriptions.
type RegionKind int

const (
	// RegionNone marks a term without a serializable region; such a
	// term cannot be shipped to a remote node.
	RegionNone RegionKind = iota
	// RegionRect is a fixed rectangle (including the full frame).
	RegionRect
	// RegionObject is each mask's object bounding box from the
	// catalog; the node resolves it against its own catalog copy.
	RegionObject
)

// RegionSpec is the wire-friendly description of a CPTerm's region.
type RegionSpec struct {
	Kind RegionKind
	Rect Rect
}

// CandBound is one ranking candidate's CHI bounds, in the exported
// shape the coordinator exchanges with shard nodes. Known marks Score
// exact from the bounds alone.
// Indexed distinguishes "no CHI" from a CHI whose bounds happen to
// span the whole range: the aggregation executor widens unindexed
// members to +Inf, which Bounds alone cannot express.
type CandBound struct {
	ID      int64
	B       Bounds
	Known   bool
	Score   int64
	Indexed bool
}

// boundCand resolves one candidate's score bounds from the index; it
// is the single bounds rule of every ranking executor, local, batched
// and remote.
func (e *Env) boundCand(id int64, term *termPlan, st *Stats) (CandBound, error) {
	c := CandBound{ID: id, B: Bounds{Lo: 0, Hi: unknownHi}}
	chi, err := e.chiFor(id, st)
	if err != nil {
		return c, err
	}
	if chi != nil {
		c.Indexed = true
		c.B = term.bounds(chi, id)
		if c.B.Lo == c.B.Hi {
			c.Known, c.Score = true, c.B.Lo
		}
	}
	return c, nil
}

// Filter is the local filter stage: every id's filter decision — from
// CHI bounds when possible, by loading and verifying otherwise — as
// keep flags in id order. Every id is answered. Decisions are
// independent per id, so sequential and worker-pool execution produce
// identical flags and stats.
func (e *Env) Filter(ctx context.Context, ids []int64, terms []CPTerm, pred Pred) ([]bool, []bool, Stats, error) {
	if pred == nil {
		pred = And{}
	}
	keep := make([]bool, len(ids))
	plans := planTerms(terms)
	wbs := e.scratch(len(terms))
	st, err := e.forEach(ctx, len(ids), func(w, i int, st *Stats) (err error) {
		keep[i], err = e.filterTarget(ids[i], plans, pred, wbs[w], st)
		return err
	})
	st.Targets = len(ids)
	if err != nil {
		return nil, nil, st, err
	}
	return keep, nil, st, nil
}

// scratch returns one bounds buffer of n terms per pool worker. A cache
// line of spare capacity keeps one worker's scratch off the line its
// neighbour's starts on.
func (e *Env) scratch(n int) [][]Bounds {
	wbs := make([][]Bounds, e.Exec.workers())
	for w := range wbs {
		wbs[w] = make([]Bounds, n, n+4)
	}
	return wbs
}

// Bounds is the local bounds stage: every id's score bounds from the
// index, fanned out over the worker pool when there is one. Every id is
// answered.
func (e *Env) Bounds(ctx context.Context, ids []int64, term *ScoreTerm) ([]CandBound, []bool, Stats, error) {
	cands := make([]CandBound, len(ids))
	st, err := e.forEach(ctx, len(ids), func(_, i int, st *Stats) (err error) {
		cands[i], err = e.boundCand(ids[i], &term.plan, st)
		return err
	})
	st.Targets = len(ids)
	if err != nil {
		return nil, nil, st, err
	}
	return cands, nil, st, nil
}

// Verify is the local verification stage. On the worker pool it skips
// by gate; the sequential engine verifies every item, so its counts
// are the reference the pool's are compared against.
func (e *Env) Verify(ctx context.Context, items []VerifyItem, term *ScoreTerm, gate Gate, land func(i int, score int64)) (Stats, error) {
	if !e.pooled(len(items)) {
		gate = nil
	}
	return e.verifyItems(ctx, items, &term.plan, gate, land)
}

// verifyItems loads and refines every item the gate does not skip,
// landing each exact score. The gate is checked before each load and
// watches the loaded mask's refinement: an item it rejects mid-scan is
// not landed (and still counts as Loaded).
func (e *Env) verifyItems(ctx context.Context, items []VerifyItem, plan *termPlan, gate Gate, land func(i int, score int64)) (Stats, error) {
	return e.forEach(ctx, len(items), func(_, i int, st *Stats) error {
		var stop func(Bounds) bool
		if gate != nil {
			if gate.Skip(i, items[i].B) {
				st.RejectedByBounds++
				return nil
			}
			stop = func(b Bounds) bool { return gate.Skip(i, b) }
		}
		id := items[i].ID
		var b Bounds
		err := e.verify(id, st, func(chi *CHI, m *Mask) { b = plan.refine(chi, m, id, stop) })
		if err == nil && b.Lo == b.Hi {
			land(i, b.Lo)
		}
		return err
	})
}

// BoundCands resolves every target's score bounds in target order: the
// bounds stage a shard node serves.
func BoundCands(ctx context.Context, env *Env, targets []int64, term CPTerm) ([]CandBound, Stats, error) {
	cands, _, st, err := env.Bounds(ctx, targets, newScoreTerm(term))
	return cands, st, err
}

// VerifyItem is one verification work item: the candidate and the
// bounds its gate check uses.
type VerifyItem struct {
	ID int64
	B  Bounds
}
