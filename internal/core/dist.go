package core

import (
	"context"
	"math"
	"sync/atomic"
)

// This file holds the engine primitives the distributed subsystem
// (internal/dist) builds on. A remote shard node runs exactly the
// same per-target work the local executors run — filter decisions,
// candidate bounds, τ-gated verification — so the scatter-gathered
// result can be byte-identical to single-node execution. The
// primitives are exported from core rather than reimplemented in dist
// so the two execution paths cannot drift.

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
	Kind RegionKind `json:"kind"`
	Rect Rect       `json:"rect"`
}

// CandBound is one ranking candidate's CHI bounds, in the exported
// shape the coordinator exchanges with shard nodes. Indexed
// distinguishes "no CHI" from a CHI whose bounds happen to span the
// whole range: the aggregation executor widens unindexed members to
// +Inf, which Bounds alone cannot express.
type CandBound struct {
	ID      int64  `json:"id"`
	B       Bounds `json:"b"`
	Known   bool   `json:"known,omitempty"`
	Score   int64  `json:"score,omitempty"`
	Indexed bool   `json:"indexed,omitempty"`
}

// boundCand resolves one candidate's score bounds from the index; it
// is the single bounds rule topkBound, memberBound and the
// distributed bounds service share.
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

// FilterDecide resolves every target's filter decision — from CHI
// bounds when possible, by loading and verifying otherwise — and
// returns the per-target keep flags in target order. It is Filter
// without the id assembly, which is the shape a shard node needs (the
// coordinator reassembles ids so the global result order is the
// caller's target order). Decisions are independent per target, so
// sequential and worker-pool execution produce identical flags and
// stats.
func FilterDecide(ctx context.Context, env *Env, targets []int64, terms []CPTerm, pred Pred) ([]bool, Stats, error) {
	if pred == nil {
		pred = And{}
	}
	keep := make([]bool, len(targets))
	plans := planTerms(terms)
	wbs := make([][]Bounds, env.Exec.workers())
	for w := range wbs {
		// A cache line of spare capacity keeps one worker's scratch
		// off the line its neighbour's starts on.
		wbs[w] = make([]Bounds, len(terms), len(terms)+4)
	}
	st, err := env.forEach(ctx, len(targets), func(i int) int64 { return targets[i] },
		func(w, i int, st *Stats) (err error) {
			keep[i], err = env.filterTarget(targets[i], plans, pred, wbs[w], st)
			return err
		})
	st.Targets = len(targets)
	if err != nil {
		return nil, st, err
	}
	return keep, st, nil
}

// BoundCands resolves every target's score bounds (the TopK bounds
// stage, and the member-bounds stage of AggTopK) in target order.
func BoundCands(ctx context.Context, env *Env, targets []int64, term CPTerm) ([]CandBound, Stats, error) {
	out := make([]CandBound, len(targets))
	plan := &planTerms([]CPTerm{term})[0]
	st, err := env.forEach(ctx, len(targets), nil, func(_, i int, st *Stats) (err error) {
		out[i], err = env.boundCand(targets[i], plan, st)
		return err
	})
	st.Targets = len(targets)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// PruneCands applies TopK's static pruning rule to an exported
// candidate slice: candidates whose upper bound is strictly worse than
// the k-th best lower bound can never place, so the coordinator drops
// them before shipping any verification work. Same rule, same
// tie-keeping as the local engine (both call pruneByBounds). A k
// outside (0, len) keeps every candidate.
func PruneCands(cands []CandBound, k int, ord Order, st *Stats) []CandBound {
	if k <= 0 || k >= len(cands) {
		return cands
	}
	return pruneByBounds(cands, k, ord,
		func(c CandBound) int64 { return c.B.Lo },
		func(c CandBound) int64 { return c.B.Hi },
		func(CandBound) { st.RejectedByBounds++ })
}

// GroupBound is one aggregation group's aggregate bounds in exported
// form; N is the member count (group pruning rejects all members).
type GroupBound struct {
	Key    int64
	Lo, Hi float64
	N      int
}

// PruneGroupBounds applies AggTopK's static group pruning rule. A k
// outside (0, len) keeps every group.
func PruneGroupBounds(gs []GroupBound, k int, ord Order, st *Stats) []GroupBound {
	if k <= 0 || k >= len(gs) {
		return gs
	}
	return pruneByBounds(gs, k, ord,
		func(g GroupBound) float64 { return g.Lo },
		func(g GroupBound) float64 { return g.Hi },
		func(g GroupBound) { st.RejectedByBounds += g.N })
}

// AggMemberBounds folds exported member bounds into los/his/known/
// exact in the exact shape AggTopK's member-bounds stage produces
// (unindexed members widen to +Inf via the same memberBound rule the
// local engine uses, because boundCand is shared).
func AggMemberBounds(agg Agg, cands []CandBound) (lo, hi float64) {
	los := make([]float64, len(cands))
	his := make([]float64, len(cands))
	for i, c := range cands {
		los[i] = float64(c.B.Lo)
		if c.Indexed {
			his[i] = float64(c.B.Hi)
		} else {
			his[i] = math.Inf(1)
		}
	}
	return aggBounds(agg, los, his)
}

// TauGate is the remote half of TauTracker: a shard node's
// verification loop consults it before each mask load, and the
// coordinator (the sole τ authority) advances it as exact scores land
// anywhere in the cluster. Set only ever receives a τ the tracker
// derived from really-landed scores, so a stale gate is merely
// conservative — exactly the property that keeps skips sound.
type TauGate struct {
	ord  Order
	tau  atomic.Int64
	full atomic.Bool
}

// NewTauGate returns an open gate (nothing may be skipped yet).
func NewTauGate(ord Order) *TauGate {
	return &TauGate{ord: ord}
}

// Set advances the gate to a τ that k landed exact scores justify.
func (g *TauGate) Set(tau int64) {
	g.tau.Store(tau)
	g.full.Store(true)
}

// Skip mirrors TauTracker.Skip: strictly-worse-than-τ candidates can
// never place.
func (g *TauGate) Skip(b Bounds) bool {
	if !g.full.Load() {
		return false
	}
	if g.ord == Desc {
		return b.Hi < g.tau.Load()
	}
	return b.Lo > g.tau.Load()
}

// VerifyItem is one verification work item: the candidate and the
// bounds its gate check uses.
type VerifyItem struct {
	ID int64  `json:"id"`
	B  Bounds `json:"b"`
}

// VerifyEach loads and exactly evaluates every item the gate does not
// skip, calling emit(i, vals) with the item's index and its exact
// per-term values. A nil gate verifies everything (the aggregation
// stage, and the no-exchange baseline). Gate skips are counted as
// RejectedByBounds, matching the worker-pool TopK engine; with a single
// term the gate also watches a loaded mask's refinement, and an item it
// rejects mid-scan is reported skipped too (still counted as Loaded).
// emit may be called concurrently when env.Exec runs a pool; the
// skipped flags are per-item and written before VerifyEach returns.
func VerifyEach(ctx context.Context, env *Env, items []VerifyItem, terms []CPTerm, gate *TauGate, emit func(i int, vals []int64)) ([]bool, Stats, error) {
	skipped := make([]bool, len(items))
	plans := planTerms(terms)
	var stop func(Bounds) bool
	if gate != nil && len(terms) == 1 {
		stop = gate.Skip
	}
	st, err := env.forEach(ctx, len(items), func(i int) int64 { return items[i].ID }, func(_, i int, st *Stats) error {
		id := items[i].ID
		if gate != nil && gate.Skip(items[i].B) {
			skipped[i] = true
			st.RejectedByBounds++
			return nil
		}
		vals := make([]int64, len(plans))
		err := env.verify(id, st, func(chi *CHI, m *Mask) {
			for t := range plans {
				b := plans[t].refine(chi, m, id, stop)
				skipped[i] = skipped[i] || b.Lo != b.Hi
				vals[t] = b.Lo
			}
		})
		if err == nil && !skipped[i] {
			emit(i, vals)
		}
		return err
	})
	return skipped, st, err
}
