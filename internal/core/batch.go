package core

import (
	"context"
	"fmt"
	"slices"
)

// BatchKind selects the executor a BatchQuery runs through.
type BatchKind int

const (
	BatchFilter BatchKind = iota
	BatchTopK
	BatchAgg
)

func (k BatchKind) String() string {
	switch k {
	case BatchFilter:
		return "filter"
	case BatchTopK:
		return "topk"
	case BatchAgg:
		return "aggregation"
	}
	return "?"
}

// BatchQuery is one query of an ExecBatch workload, the union of the
// three executors' inputs. Targets feeds BatchFilter and BatchTopK;
// Groups feeds BatchAgg. K <= 0 means "all" for the ranking kinds,
// matching TopK and AggTopK.
type BatchQuery struct {
	Kind    BatchKind
	Targets []int64
	Groups  []Group
	Terms   []CPTerm
	Pred    Pred  // BatchFilter; nil means "always true"
	Score   Term  // BatchTopK, BatchAgg
	Agg     Agg   // BatchAgg
	K       int   // BatchTopK, BatchAgg
	Order   Order // BatchTopK, BatchAgg
}

// BatchResult is the answer to one BatchQuery: IDs for BatchFilter,
// Ranked for the ranking kinds, plus the query's own pipeline stats.
type BatchResult struct {
	IDs    []int64
	Ranked []Scored
	Stats  Stats
}

// bqState carries one query through the batch pipeline.
type bqState struct {
	q BatchQuery
	// plans holds the filter terms' plans (BatchFilter) or the score
	// term's alone (the ranking kinds verify nothing else).
	plans []termPlan
	pred  Pred
	st    Stats
	// BatchFilter: per-target outcome and which targets the bounds
	// could not decide.
	keep  []bool
	undec []bool
	// The ranking kinds: the candidates of ids (BatchTopK's targets,
	// or every member of BatchAgg's non-empty groups), and k.
	ids   []int64
	cands []CandBound
	k     int
	tt    *TauTracker // BatchTopK
	// BatchAgg: the groups as runs of cands and their member columns.
	groups []aggGroup
	f64    []float64
}

// consumer is one query's interest in one mask load: qi names the
// query, a the target (BatchFilter) or candidate index.
type consumer struct {
	qi, a int
}

// ExecBatch executes a multi-query workload (§4.5) as one scheduled
// batch. It first resolves every query's bounds stage from the index,
// then groups the surviving verification work by mask: each distinct
// mask the batch needs is loaded from the store once and fanned out to
// every interested query, instead of once per query. Loads and bounds
// work run on env.Exec's worker pool.
//
// Results are byte-identical to running each query alone through
// Filter, TopK and AggTopK — bounds decisions are per query and exact
// evaluation of a shared mask returns the same values as a private
// load. Per-query Stats match the standalone sequential engine for
// BatchFilter and BatchAgg; BatchTopK additionally refines each
// query's τ as exact scores land (like the parallel engine), so its
// verification stage may skip masks the standalone engine loads, with
// Loaded + RejectedByBounds conserved. Stats.Loaded counts the masks a
// query evaluated exactly, whether or not the physical load was
// shared; the store's ReadStats count the physical loads.
func ExecBatch(ctx context.Context, env *Env, queries []BatchQuery) ([]BatchResult, error) {
	states := make([]bqState, len(queries))
	maxTerms := 1
	type unit struct{ qi, i int }
	var units []unit
	for qi := range queries {
		s := &states[qi]
		s.q = queries[qi]
		if len(s.q.Terms) > maxTerms {
			maxTerms = len(s.q.Terms)
		}
		if s.q.Kind != BatchFilter {
			if err := checkScore(s.q.Terms, s.q.Score); err != nil {
				return nil, fmt.Errorf("batch query %d: %w", qi, err)
			}
		}
		switch s.q.Kind {
		case BatchFilter:
			s.plans = planTerms(s.q.Terms)
			s.pred = s.q.Pred
			if s.pred == nil {
				s.pred = And{}
			}
			s.st.Targets = len(s.q.Targets)
			s.keep = make([]bool, len(s.q.Targets))
			s.undec = make([]bool, len(s.q.Targets))
			for i := range s.q.Targets {
				units = append(units, unit{qi, i})
			}
		case BatchTopK, BatchAgg:
			s.plans = planTerms(s.q.Terms[s.q.Score : s.q.Score+1])
			s.ids = s.q.Targets
			if s.q.Kind == BatchAgg {
				s.groups, s.ids = flattenGroups(s.q.Groups)
			}
			s.st.Targets = len(s.ids)
			s.cands = make([]CandBound, len(s.ids))
			for i := range s.ids {
				units = append(units, unit{qi, i})
			}
		default:
			return nil, fmt.Errorf("core: batch query %d: unknown kind %v", qi, s.q.Kind)
		}
	}

	// Per-worker stats (one per query) and bounds scratch. A cache line
	// of spare capacity keeps what one worker writes per mask off the
	// line its neighbour's allocation starts on.
	workers := env.Exec.workers()
	wstats := make([][]Stats, workers)
	scratch := make([][]Bounds, workers)
	for w := range workers {
		wstats[w] = make([]Stats, len(queries), len(queries)+2)
		scratch[w] = make([]Bounds, maxTerms, maxTerms+4)
	}
	mergeWorkerStats := func() {
		for w := range wstats {
			for qi := range wstats[w] {
				states[qi].st.Merge(wstats[w][qi])
			}
			clear(wstats[w])
		}
	}

	// Stage 1: every query's bounds, fanned out over the flat
	// (query, item) work list. Decisions are per query and independent
	// per item, so this matches each standalone bounds stage exactly.
	err := fanOut(ctx, workers, len(units), func(w, ui int) error {
		u := units[ui]
		s := &states[u.qi]
		st := &wstats[w][u.qi]
		switch s.q.Kind {
		case BatchFilter:
			decision, err := env.filterBounds(s.q.Targets[u.i], s.plans, s.pred, scratch[w], st)
			if err != nil {
				return err
			}
			s.keep[u.i], s.undec[u.i] = decision == True, decision == Unknown
		default:
			var err error
			s.cands[u.i], err = env.boundCand(s.ids[u.i], &s.plans[0], st)
			return err
		}
		return nil
	})
	mergeWorkerStats()
	if err != nil {
		return nil, err
	}

	// Stage 2 (sequential, cheap): static pruning per query, then the
	// batch load plan — every mask still needing verification, mapped
	// to the consumers interested in it.
	needs := make(map[int64][]consumer)
	addNeed := func(id int64, c consumer) { needs[id] = append(needs[id], c) }
	for qi := range states {
		s := &states[qi]
		switch s.q.Kind {
		case BatchFilter:
			for i, u := range s.undec {
				if u {
					addNeed(s.q.Targets[i], consumer{qi: qi, a: i})
				}
			}
		case BatchTopK:
			s.k = clampK(s.q.K, len(s.cands))
			s.cands = pruneCands(s.cands, s.k, s.q.Order, &s.st)
			s.tt = NewTauTracker(s.k, s.q.Order)
			for i, c := range s.cands {
				if c.Known {
					s.st.AcceptedByBounds++
					s.tt.Add(c.Score)
				} else {
					addNeed(c.ID, consumer{qi: qi, a: i})
				}
			}
		case BatchAgg:
			s.f64 = make([]float64, 2*len(s.cands))
			s.groups = boundGroups(s.groups, s.cands, nil, s.q.Agg, s.f64)
			s.k = clampK(s.q.K, len(s.groups))
			s.groups = pruneGroups(s.groups, s.k, s.q.Order, &s.st)
			for _, g := range s.groups {
				for i := g.off; i < g.off+g.n; i++ {
					if s.cands[i].Known {
						s.st.AcceptedByBounds++
					} else {
						addNeed(s.cands[i].ID, consumer{qi: qi, a: i})
					}
				}
			}
		}
	}
	ids := make([]int64, 0, len(needs))
	for id := range needs {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	// Stage 3: shared verification. Each distinct mask is loaded once
	// and refined for every consumer; a Top-K consumer whose bounds
	// fall below its query's refined τ is skipped instead (and a mask
	// nobody still wants is not loaded at all). On a sharded store the
	// loads are handed out shard by shard, so each shard's file and
	// cache arena serve their own worker slice.
	err = fanOutLoads(ctx, env.Loader, workers, len(ids), func(ii int) int64 { return ids[ii] },
		func(w, ii int) error {
			id := ids[ii]
			cons := needs[id]
			active := make([]consumer, 0, len(cons))
			for _, c := range cons {
				s := &states[c.qi]
				if s.q.Kind == BatchTopK && s.tt.Skip(s.cands[c.a].B) {
					wstats[w][c.qi].RejectedByBounds++
					continue
				}
				active = append(active, c)
			}
			if len(active) == 0 {
				return nil
			}
			return env.verify(id, nil, func(chi *CHI, m *Mask) {
				for _, c := range active {
					s := &states[c.qi]
					wstats[w][c.qi].Loaded++
					switch s.q.Kind {
					case BatchFilter:
						bs := scratch[w][:len(s.plans)]
						boundsInto(bs, s.plans, chi, id)
						s.keep[c.a] = decide(s.plans, s.pred, chi, m, id, bs)
					case BatchTopK:
						if b := s.plans[0].refine(chi, m, id, s.tt.Skip); b.Lo == b.Hi {
							s.cands[c.a].Known, s.cands[c.a].Score = true, b.Lo
							s.tt.Add(b.Lo)
						}
					case BatchAgg:
						s.cands[c.a].Known, s.cands[c.a].Score = true, s.plans[0].refine(chi, m, id, nil).Lo
					}
				}
			})
		})
	mergeWorkerStats()
	if err != nil {
		return nil, err
	}

	// Stage 4 (sequential): assemble each query's result exactly as
	// its standalone executor would.
	out := make([]BatchResult, len(queries))
	for qi := range states {
		s := &states[qi]
		res := &out[qi]
		switch s.q.Kind {
		case BatchFilter:
			for i, id := range s.q.Targets {
				if s.keep[i] {
					res.IDs = append(res.IDs, id)
				}
			}
		case BatchTopK:
			res.Ranked = rankTop(s.cands, s.k, s.q.Order)
		case BatchAgg:
			res.Ranked = rankAgg(s.groups, s.cands, s.q.Agg, s.k, s.q.Order, s.f64)
		}
		res.Stats = s.st
	}
	return out, nil
}
