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

// tkCand is one Top-K candidate between the bounds and verification
// stages.
type tkCand struct {
	id    int64
	b     Bounds
	known bool
	score int64
	// skip marks candidates the parallel engine proved out of the
	// top k after static pruning (dynamic τ refinement).
	skip bool
}

// topkBound fills one candidate from the index.
func (e *Env) topkBound(id int64, term *termPlan, st *Stats) (tkCand, error) {
	c, err := e.boundCand(id, term, st)
	return tkCand{id: c.ID, b: c.B, known: c.Known, score: c.Score}, err
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

// topkPrune drops candidates whose bounds provably cannot reach the
// k-th rank (static τ from the k-th best guaranteed score). Requires
// 0 < k <= len(cands); it mutates cands in place and returns the
// survivors.
func topkPrune(cands []tkCand, k int, ord Order, st *Stats) []tkCand {
	return pruneByBounds(cands, k, ord,
		func(c tkCand) int64 { return c.b.Lo },
		func(c tkCand) int64 { return c.b.Hi },
		func(tkCand) { st.RejectedByBounds++ })
}

// TopK ranks targets by the exact value of terms[score] and returns
// the best k in the requested order (ties break toward smaller ids).
// CHI bounds prune targets that provably cannot reach the k-th rank;
// only surviving candidates with inexact bounds are loaded. With a
// worker pool configured the bounds and verification stages fan out;
// the returned ranking is identical to the sequential engine's, but
// the pool additionally refines τ as exact scores land, so the
// verification stage may skip (and not load) candidates the
// sequential engine would have loaded.
func TopK(ctx context.Context, env *Env, targets []int64, terms []CPTerm, score Term, k int, ord Order) ([]Scored, Stats, error) {
	if int(score) < 0 || int(score) >= len(terms) {
		return nil, Stats{}, fmt.Errorf("core: score term T%d out of range (have %d terms)", int(score), len(terms))
	}
	plan := &planTerms(terms[score : score+1])[0]
	if w := env.Exec.workers(); w > 1 && len(targets) >= minParallelTargets {
		return topkPar(ctx, env, targets, plan, k, ord, w)
	}
	st := Stats{Targets: len(targets)}
	cands := make([]tkCand, 0, len(targets))
	for i, id := range targets {
		if err := CheckCtx(ctx, i); err != nil {
			return nil, st, err
		}
		c, err := env.topkBound(id, plan, &st)
		if err != nil {
			return nil, st, err
		}
		cands = append(cands, c)
	}
	if k <= 0 || k > len(cands) {
		k = len(cands)
	}
	cands = topkPrune(cands, k, ord, &st)
	nv := 0
	for i := range cands {
		c := &cands[i]
		if c.known {
			st.AcceptedByBounds++
			continue
		}
		// Poll here too, on a dedicated verification counter (the
		// candidate index would skip polls whenever bounds-exact
		// candidates land on the 256-multiples): the verification
		// loop is where a query spends its time, so cancellation
		// mid-verification must not wait for the loop to drain.
		if err := CheckCtx(ctx, nv); err != nil {
			return nil, st, err
		}
		nv++
		err := env.verify(c.id, &st, func(chi *CHI, m *Mask) { c.score = plan.refine(chi, m, c.id, nil).Lo })
		if err != nil {
			return nil, st, err
		}
	}
	return rankCands(cands, k, ord), st, nil
}

// gcand is one aggregation-query candidate group.
type gcand struct {
	key      int64
	ids      []int64
	lo, hi   float64
	los, his []float64
	known    []bool
	exact    []int64
	vals     []float64
}

// gcandSkeletons allocates the per-group state, skipping empty groups.
// The per-member columns of all groups are carved out of three flat
// arrays: three allocations per query instead of five per group.
func gcandSkeletons(groups []Group, st *Stats) []gcand {
	for _, g := range groups {
		st.Targets += len(g.IDs)
	}
	n := st.Targets
	f64 := make([]float64, 3*n)
	los, his, vals := f64[:n:n], f64[n:2*n:2*n], f64[2*n:]
	known, exact := make([]bool, n), make([]int64, n)
	cands := make([]gcand, 0, len(groups))
	for _, g := range groups {
		m := len(g.IDs)
		if m == 0 {
			continue
		}
		cands = append(cands, gcand{
			key: g.Key, ids: g.IDs,
			los: los[:m:m], his: his[:m:m], vals: vals[:m:m], known: known[:m:m], exact: exact[:m:m],
		})
		los, his, vals, known, exact = los[m:], his[m:], vals[m:], known[m:], exact[m:]
	}
	return cands
}

// memberBound resolves one group member's score bounds. An unindexed
// member's upper bound is +Inf (not unknownHi) so the group's
// aggregate bound stays admissible for every aggregate.
func (e *Env) memberBound(gc *gcand, i int, term *termPlan, st *Stats) error {
	c, err := e.boundCand(gc.ids[i], term, st)
	if err != nil {
		return err
	}
	gc.known[i], gc.exact[i] = c.Known, c.Score
	gc.los[i] = float64(c.B.Lo)
	if c.Indexed {
		gc.his[i] = float64(c.B.Hi)
	} else {
		gc.his[i] = math.Inf(1)
	}
	return nil
}

// aggPrune drops groups whose aggregate bounds provably cannot reach
// the k-th rank. Requires 0 < k <= len(cands).
func aggPrune(cands []gcand, k int, ord Order, st *Stats) []gcand {
	return pruneByBounds(cands, k, ord,
		func(c gcand) float64 { return c.lo },
		func(c gcand) float64 { return c.hi },
		func(c gcand) { st.RejectedByBounds += len(c.ids) })
}

// AggTopK groups masks, aggregates the exact value of terms[score]
// within each group with agg, and returns the top-k groups. Group
// bounds are derived from member CHI bounds; groups that provably
// cannot rank are pruned before any mask is loaded. The worker-pool
// engine fans both the member-bounds and member-verification stages
// out across goroutines with results and stats identical to the
// sequential engine.
func AggTopK(ctx context.Context, env *Env, groups []Group, terms []CPTerm, score Term, agg Agg, k int, ord Order) ([]Scored, Stats, error) {
	if int(score) < 0 || int(score) >= len(terms) {
		return nil, Stats{}, fmt.Errorf("core: score term T%d out of range (have %d terms)", int(score), len(terms))
	}
	var st Stats
	cands := gcandSkeletons(groups, &st)
	plan := &planTerms(terms[score : score+1])[0]
	if w := env.Exec.workers(); w > 1 && st.Targets >= minParallelTargets {
		return aggPar(ctx, env, cands, plan, agg, k, ord, w, st)
	}
	n := 0
	for gi := range cands {
		gc := &cands[gi]
		for i := range gc.ids {
			if err := CheckCtx(ctx, n); err != nil {
				return nil, st, err
			}
			n++
			if err := env.memberBound(gc, i, plan, &st); err != nil {
				return nil, st, err
			}
		}
		gc.lo, gc.hi = aggBounds(agg, gc.los, gc.his)
	}
	if k <= 0 || k > len(cands) {
		k = len(cands)
	}
	cands = aggPrune(cands, k, ord, &st)
	nv := 0
	for gi := range cands {
		gc := &cands[gi]
		for i, id := range gc.ids {
			if gc.known[i] {
				continue
			}
			// Poll during verification as well, so cancellation does
			// not wait for every remaining member load.
			if err := CheckCtx(ctx, nv); err != nil {
				return nil, st, err
			}
			nv++
			err := env.verify(id, &st, func(chi *CHI, m *Mask) { gc.vals[i] = float64(plan.refine(chi, m, id, nil).Lo) })
			if err != nil {
				return nil, st, err
			}
		}
	}
	return rankGroups(cands, agg, k, ord, &st), st, nil
}

// aggBounds folds member bounds into group bounds; every aggregate
// here is monotone in each member, so folding lows and highs
// separately is admissible.
func aggBounds(agg Agg, los, his []float64) (float64, float64) {
	return AggExact(agg, los), AggExact(agg, his)
}

// AggExact applies an aggregate to exact member values.
func AggExact(agg Agg, vals []float64) float64 {
	switch agg {
	case Sum, Mean:
		var s float64
		for _, v := range vals {
			s += v
		}
		if agg == Mean {
			s /= float64(len(vals))
		}
		return s
	case Min:
		out := vals[0]
		for _, v := range vals[1:] {
			out = math.Min(out, v)
		}
		return out
	case Max:
		out := vals[0]
		for _, v := range vals[1:] {
			out = math.Max(out, v)
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
