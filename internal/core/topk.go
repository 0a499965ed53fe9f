package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
)

// unknownHi stands in for the score upper bound of an unindexed mask:
// it forces the mask into the candidate set so it gets verified.
const unknownHi = int64(math.MaxInt64 / 4)

// Stages is where a query's per-mask work runs: *Env runs it in this
// process, Batch shares its loads across the statements of a batch,
// internal/dist runs it on remote shard nodes. The drivers (FilterOn,
// TopKOn, AggTopKOn) own everything between the stages — static
// pruning, τ, aggregation, the final sort — so every place that runs
// the stages returns the same answer.
type Stages interface {
	// Filter decides pred for each id, in id order: keep[i] reports
	// whether id i satisfies it. answered has Bounds' meaning.
	Filter(ctx context.Context, ids []int64, terms []CPTerm, pred Pred) (keep, answered []bool, st Stats, err error)
	// Bounds resolves each id's score bounds, in id order. answered[i]
	// is false when id i's shard did not answer (a degraded remote
	// query); a nil answered means every id was answered.
	Bounds(ctx context.Context, ids []int64, term *ScoreTerm) (cands []CandBound, answered []bool, st Stats, err error)
	// Verify computes items' exact scores, calling land(i, score) at
	// most once per item, possibly concurrently. It never lands an item
	// whose shard did not answer, and with a non-nil gate it may skip
	// any item i for which gate.Skip(i, b) holds, before its load (b is
	// the item's bounds; the skip counts as RejectedByBounds) or during
	// it (b narrows as the mask is counted). The drivers pass items
	// best-first, and a pool or a shard takes them up in that order (a
	// batch round loads in id order).
	Verify(ctx context.Context, items []VerifyItem, term *ScoreTerm, gate Gate, land func(i int, score int64)) (Stats, error)
}

// ScoreTerm is a ranking query's score term as the stages receive it:
// the CPTerm, which remote stages ship, and its plan, built once per
// query, which the local stages evaluate.
type ScoreTerm struct {
	CPTerm
	plan termPlan
}

func newScoreTerm(t CPTerm) *ScoreTerm {
	s := &ScoreTerm{CPTerm: t}
	s.plan.region, s.plan.rc = t.Region, newRangeCounter(t.Range)
	return s
}

func checkScore(terms []CPTerm, score Term) error {
	if int(score) < 0 || int(score) >= len(terms) {
		return fmt.Errorf("core: score term T%d out of range (have %d terms)", int(score), len(terms))
	}
	return nil
}

// clampK maps k <= 0 ("all") and k beyond the candidates to n.
func clampK(k, n int) int {
	if k <= 0 || k > n {
		return n
	}
	return k
}

// TopK ranks targets by the exact value of terms[score] and returns
// the best k in the requested order (ties break toward smaller ids).
// CHI bounds prune targets that provably cannot reach the k-th rank;
// only surviving candidates with inexact bounds are loaded, best
// optimistic bound first. With a worker pool configured the bounds and
// verification stages fan out; the returned ranking is identical to
// the sequential engine's, but the pool additionally refines τ as
// exact scores land, so the verification stage may skip (and not
// load) candidates the sequential engine would have loaded.
func TopK(ctx context.Context, env *Env, targets []int64, terms []CPTerm, score Term, k int, ord Order) ([]Scored, Stats, error) {
	return TopKOn(ctx, env, targets, terms, score, k, ord)
}

// AggTopK groups masks, aggregates the exact value of terms[score]
// within each group with agg, and returns the top-k groups (ties break
// toward smaller keys). Group bounds are derived from member CHI
// bounds; groups that provably cannot rank are pruned before any mask
// is loaded, and the survivors are verified best-first. With a worker
// pool configured the stages fan out; the returned ranking is
// identical to the sequential engine's, but the pool additionally
// keeps a group τ — the k-th best complete group — and skips the
// members of groups it proves out, as TopK skips candidates.
func AggTopK(ctx context.Context, env *Env, groups []Group, terms []CPTerm, score Term, agg Agg, k int, ord Order) ([]Scored, Stats, error) {
	return AggTopKOn(ctx, env, groups, terms, score, agg, k, ord)
}

// TopKOn is the one top-k driver: bounds, static pruning, the
// candidates whose bounds are exact land first, the rest are verified
// best-first under the τ their scores refine, and the answer is the
// k best landed. Targets whose shard did not answer are dropped.
func TopKOn(ctx context.Context, s Stages, targets []int64, terms []CPTerm, score Term, k int, ord Order) ([]Scored, Stats, error) {
	if err := checkScore(terms, score); err != nil {
		return nil, Stats{}, err
	}
	t := newScoreTerm(terms[score])
	cands, answered, st, err := s.Bounds(ctx, targets, t)
	if err != nil {
		return nil, st, err
	}
	if answered != nil {
		live := cands[:0]
		for i, c := range cands {
			if answered[i] {
				live = append(live, c)
			}
		}
		cands = live
	}
	k = clampK(k, len(cands))
	cands = pruneCands(cands, k, ord, &st)
	tt := NewTauTracker(k, ord)
	at := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.Known {
			st.AcceptedByBounds++
			tt.Add(c.ID, c.Score)
		} else {
			at = append(at, i)
		}
	}
	bestFirst(at, ord, func(i int) float64 { return float64(cands[i].B.best(ord)) })
	items := make([]VerifyItem, len(at))
	for j, i := range at {
		items[j] = VerifyItem{ID: cands[i].ID, B: cands[i].B}
	}
	gate := topGate{tt, items}
	vst, err := s.Verify(ctx, items, t, gate, gate.land)
	st.Merge(vst)
	if err != nil {
		return nil, st, err
	}
	return tt.ranking(), st, nil
}

// AggTopKOn is the one aggregation driver: member bounds, group bounds
// and group pruning, then the unknown members of the surviving groups
// are verified, group by group best-first, under the group gate their
// scores refine, and the answer is the k best complete groups (every
// member landed). A group with a member whose shard did not answer is
// dropped whole: a partial aggregate would be wrong, not partial.
func AggTopKOn(ctx context.Context, s Stages, groups []Group, terms []CPTerm, score Term, agg Agg, k int, ord Order) ([]Scored, Stats, error) {
	if err := checkScore(terms, score); err != nil {
		return nil, Stats{}, err
	}
	t := newScoreTerm(terms[score])
	gs, ids := flattenGroups(groups)
	cands, answered, st, err := s.Bounds(ctx, ids, t)
	if err != nil {
		return nil, st, err
	}
	f64 := make([]float64, 2*len(cands))
	gs = boundGroups(gs, cands, answered, agg, f64)
	k = clampK(k, len(gs))
	gs = pruneGroups(gs, k, ord, &st)
	gate, items := newGroupGate(gs, cands, f64, agg, k, ord)
	// The members not to verify are known from their bounds.
	for _, g := range gs {
		st.AcceptedByBounds += g.n
	}
	st.AcceptedByBounds -= len(items)
	vst, err := s.Verify(ctx, items, t, gate, gate.land)
	st.Merge(vst)
	if err != nil {
		return nil, st, err
	}
	return gate.ranking(), st, nil
}

// pruneByBounds is the one static-τ pruning rule every ranking
// executor (TopK, AggTopK, batch and the distributed coordinator)
// shares: the k-th best pessimistic bound is a score the answer
// provably reaches, so any candidate whose optimistic bound is
// strictly worse cannot place. Keeping ties (>= / <=) is what makes
// the rule exact rather than heuristic. It mutates cands in place and
// returns the survivors; reject observes each dropped candidate.
func pruneByBounds[T any, V cmp.Ordered](cands []T, k int, ord Order, lo, hi func(T) V, reject func(T)) []T {
	if k >= len(cands) {
		return cands
	}
	// Desc: tau is the k-th largest lower bound and a candidate survives
	// with hi >= tau. Asc mirrors it on the k-th smallest upper bound.
	guaranteed, optimistic, nth := lo, hi, len(cands)-k
	if ord == Asc {
		guaranteed, optimistic, nth = hi, lo, k-1
	}
	sel := make([]V, len(cands))
	for i, c := range cands {
		sel[i] = guaranteed(c)
	}
	tau := selectNth(sel, nth)
	kept := cands[:0]
	for _, c := range cands {
		v := optimistic(c)
		if (ord == Desc && v >= tau) || (ord == Asc && v <= tau) {
			kept = append(kept, c)
		} else {
			reject(c)
		}
	}
	return kept
}

// selectNth returns the element that would sit at index n if s were
// sorted ascending, partially reordering s (quickselect): pruning needs
// one order statistic of the bounds, not all n of them in order.
func selectNth[V cmp.Ordered](s []V, n int) V {
	for lo, hi := 0, len(s)-1; lo < hi; {
		pivot := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return s[n]
		}
	}
	return s[n]
}

// pruneCands drops candidates whose bounds provably cannot reach the
// k-th rank. Requires 0 <= k <= len(cands); it mutates cands in place
// and returns the survivors.
func pruneCands(cands []CandBound, k int, ord Order, st *Stats) []CandBound {
	return pruneByBounds(cands, k, ord,
		func(c CandBound) int64 { return c.B.Lo },
		func(c CandBound) int64 { return c.B.Hi },
		func(CandBound) { st.RejectedByBounds++ })
}

// aggGroup is one non-empty group of an aggregation query: its members
// are [off, off+n) of the query's flat member list, and lo/hi its
// aggregate bounds.
type aggGroup struct {
	key    int64
	off, n int
	lo, hi float64
}

// best is the group's optimistic bound in direction ord.
func (g aggGroup) best(ord Order) float64 {
	if ord == Asc {
		return g.lo
	}
	return g.hi
}

// flattenGroups lists the members of the non-empty groups as one flat
// id list, in group order, and each group as a run of it.
func flattenGroups(groups []Group) ([]aggGroup, []int64) {
	n := 0
	for _, g := range groups {
		n += len(g.IDs)
	}
	gs, ids := make([]aggGroup, 0, len(groups)), make([]int64, 0, n)
	for _, g := range groups {
		if len(g.IDs) > 0 {
			gs = append(gs, aggGroup{key: g.Key, off: len(ids), n: len(g.IDs)})
			ids = append(ids, g.IDs...)
		}
	}
	return gs, ids
}

// boundGroups folds member bounds into each group's aggregate bounds,
// dropping the groups with a member whose shard did not answer.
// Aggregates are monotone in each member, so folding lows and highs
// separately is admissible; an unindexed member's high is +Inf (not
// unknownHi) so the fold stays admissible for every aggregate. f64
// (2·len(cands)) holds the member columns, carved per group.
func boundGroups(gs []aggGroup, cands []CandBound, answered []bool, agg Agg, f64 []float64) []aggGroup {
	los, his := f64[:len(cands)], f64[len(cands):]
	live := gs[:0]
	for _, g := range gs {
		end := g.off + g.n
		if answered != nil && slices.Contains(answered[g.off:end], false) {
			continue
		}
		for i := g.off; i < end; i++ {
			los[i], his[i] = float64(cands[i].B.Lo), math.Inf(1)
			if cands[i].Indexed {
				his[i] = float64(cands[i].B.Hi)
			}
		}
		g.lo, g.hi = AggExact(agg, los[g.off:end]), AggExact(agg, his[g.off:end])
		live = append(live, g)
	}
	return live
}

// pruneGroups drops groups whose aggregate bounds provably cannot reach
// the k-th rank, rejecting all their members.
func pruneGroups(gs []aggGroup, k int, ord Order, st *Stats) []aggGroup {
	return pruneByBounds(gs, k, ord,
		func(g aggGroup) float64 { return g.lo },
		func(g aggGroup) float64 { return g.hi },
		func(g aggGroup) { st.RejectedByBounds += g.n })
}

// AggExact applies an aggregate to exact member values.
func AggExact(agg Agg, vals []float64) float64 {
	return aggFold(agg, len(vals), func(i int) float64 { return vals[i] })
}

// aggFold is AggExact over the n values val reads, in order: the group
// gate bounds and scores groups with this one arithmetic, which is
// monotone in each value, rounding included.
func aggFold(agg Agg, n int, val func(i int) float64) float64 {
	switch agg {
	case Sum, Mean:
		var s float64
		for i := range n {
			s += val(i)
		}
		if agg == Mean {
			s /= float64(n)
		}
		return s
	case Min:
		out := val(0)
		for i := 1; i < n; i++ {
			out = math.Min(out, val(i))
		}
		return out
	case Max:
		out := val(0)
		for i := 1; i < n; i++ {
			out = math.Max(out, val(i))
		}
		return out
	}
	return 0
}

// SortScored orders scored results by score in the given direction,
// breaking ties toward smaller ids.
func SortScored(s []Scored, ord Order) {
	slices.SortFunc(s, func(a, b Scored) int {
		c := cmp.Compare(a.Score, b.Score)
		if ord == Desc {
			c = -c
		}
		return cmp.Or(c, cmp.Compare(a.ID, b.ID))
	})
}
