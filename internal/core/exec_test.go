package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// syncLoader is a goroutine-safe in-memory loader for the parallel
// engine tests.
type syncLoader struct {
	mu     sync.Mutex
	masks  map[int64]*Mask
	loaded int
}

func (l *syncLoader) LoadMask(id int64) (*Mask, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.masks[id]
	if !ok {
		return nil, fmt.Errorf("no mask %d", id)
	}
	l.loaded++
	return m, nil
}

// buildParFixture returns n random masks with a partial index (every
// third mask unindexed) so the parallel engines exercise both the
// bounds and the verification paths.
func buildParFixture(rng *rand.Rand, n, w, h int) (*syncLoader, *MemoryIndex, []int64) {
	loader := &syncLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	ids := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		id := int64(i)
		m := randomMask(rng, w, h)
		loader.masks[id] = m
		if i%3 != 0 {
			chi, _ := Build(m, idx.Config())
			idx.Add(id, chi)
		}
		ids = append(ids, id)
	}
	return loader, idx, ids
}

var workerCounts = []int{1, 2, 8}

// TestParallelFilterMatchesSequential is the engine-equivalence
// property for Filter: byte-identical results AND stats across worker
// counts, plus the stats partition invariant.
func TestParallelFilterMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	loader, idx, ids := buildParFixture(rng, 90, 16, 16)
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}
		pred := Cmp{T: 0, Op: OpGt, C: int64(rng.Intn(120))}

		seqEnv := &Env{Loader: loader, Index: idx}
		want, wantSt, err := Filter(ctx, seqEnv, ids, terms, pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: w}}
			got, st, err := Filter(ctx, env, ids, terms, pred)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d workers %d: filter results differ:\ngot  %v\nwant %v", iter, w, got, want)
			}
			if st != wantSt {
				t.Fatalf("iter %d workers %d: filter stats differ: %v vs %v", iter, w, st, wantSt)
			}
			if st.Loaded+st.AcceptedByBounds+st.RejectedByBounds != st.Targets {
				t.Fatalf("iter %d workers %d: stats don't partition targets: %v", iter, w, st)
			}
		}
	}
}

// TestParallelTopKMatchesSequential checks TopK result equivalence.
// Load counts may legitimately differ (the pool refines τ and skips
// loads), but the verification stage must stay admissible:
// Loaded + RejectedByBounds is conserved.
func TestParallelTopKMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ctx := context.Background()
	loader, idx, ids := buildParFixture(rng, 90, 16, 16)
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		k := 1 + rng.Intn(15)
		ord := Order(rng.Intn(2))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}

		want, wantSt, err := TopK(ctx, &Env{Loader: loader, Index: idx}, ids, terms, 0, k, ord)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: w}}
			got, st, err := TopK(ctx, env, ids, terms, 0, k, ord)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d workers %d (k=%d %v): topk results differ:\ngot  %v\nwant %v",
					iter, w, k, ord, got, want)
			}
			if st.Targets != wantSt.Targets || st.IndexHits != wantSt.IndexHits ||
				st.AcceptedByBounds != wantSt.AcceptedByBounds {
				t.Fatalf("iter %d workers %d: deterministic topk stats differ: %v vs %v", iter, w, st, wantSt)
			}
			if st.Loaded+st.RejectedByBounds != wantSt.Loaded+wantSt.RejectedByBounds {
				t.Fatalf("iter %d workers %d: topk verification not conserved: %v vs %v", iter, w, st, wantSt)
			}
			if st.Loaded > wantSt.Loaded {
				t.Fatalf("iter %d workers %d: parallel topk loaded more (%d) than sequential (%d)",
					iter, w, st.Loaded, wantSt.Loaded)
			}
		}
	}
}

// TestParallelAggTopKMatchesSequential checks AggTopK result
// equivalence. As for TopK, load counts may differ (the pool keeps a
// group τ and skips the members of groups it proves out), but the
// verification stage must stay admissible: Loaded + RejectedByBounds
// is conserved.
func TestParallelAggTopKMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	loader, idx, ids := buildParFixture(rng, 90, 16, 16)
	var groups []Group
	for i := 0; i < len(ids); i += 5 {
		groups = append(groups, Group{Key: int64(i / 5), IDs: ids[i:min(i+5, len(ids))]})
	}
	groups = append(groups, Group{Key: 1000}) // empty group
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		k := 1 + rng.Intn(10)
		agg := Agg(rng.Intn(4))
		ord := Order(rng.Intn(2))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}

		want, wantSt, err := AggTopK(ctx, &Env{Loader: loader, Index: idx}, groups, terms, 0, agg, k, ord)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: w}}
			got, st, err := AggTopK(ctx, env, groups, terms, 0, agg, k, ord)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d workers %d (%v k=%d %v): aggtopk results differ:\ngot  %v\nwant %v",
					iter, w, agg, k, ord, got, want)
			}
			if st.Targets != wantSt.Targets || st.IndexHits != wantSt.IndexHits ||
				st.AcceptedByBounds != wantSt.AcceptedByBounds {
				t.Fatalf("iter %d workers %d: deterministic aggtopk stats differ: %v vs %v", iter, w, st, wantSt)
			}
			if st.Loaded+st.RejectedByBounds != wantSt.Loaded+wantSt.RejectedByBounds {
				t.Fatalf("iter %d workers %d: aggtopk verification not conserved: %v vs %v", iter, w, st, wantSt)
			}
			if st.Loaded > wantSt.Loaded {
				t.Fatalf("iter %d workers %d: parallel aggtopk loaded more (%d) than sequential (%d)",
					iter, w, st.Loaded, wantSt.Loaded)
			}
		}
	}
}

// TestParallelFilterError checks that loader errors surface from the
// pool instead of deadlocking or being dropped.
func TestParallelFilterError(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	loader, _, ids := buildParFixture(rng, 40, 8, 8)
	delete(loader.masks, ids[17])
	terms := []CPTerm{{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0.4, Hi: 0.6}}}
	env := &Env{Loader: loader, Exec: Exec{Workers: 4}}
	if _, _, err := Filter(context.Background(), env, ids, terms, Cmp{T: 0, Op: OpGt, C: 3}); err == nil {
		t.Fatal("missing mask should fail the parallel filter")
	}
}

// TestParallelCancellation checks ctx cancellation stops the pool.
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	loader, idx, ids := buildParFixture(rng, 64, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	terms := []CPTerm{{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0.4, Hi: 0.6}}}
	env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: 4}}
	if _, _, err := Filter(ctx, env, ids, terms, Cmp{T: 0, Op: OpGt, C: 3}); err == nil {
		t.Fatal("cancelled ctx should abort the parallel filter")
	}
}

// TestIndexAll checks the parallel eager build: every mask indexed,
// existing entries untouched, and the built count right.
func TestIndexAll(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	loader, _, ids := buildParFixture(rng, 50, 16, 16)
	for _, w := range workerCounts {
		idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
		pre, _ := Build(loader.masks[ids[0]], idx.Config())
		idx.Add(ids[0], pre)
		built, err := IndexAll(context.Background(), loader, idx, ids, Exec{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if built != len(ids)-1 {
			t.Fatalf("workers %d: built %d, want %d", w, built, len(ids)-1)
		}
		if idx.Len() != len(ids) {
			t.Fatalf("workers %d: indexed %d of %d", w, idx.Len(), len(ids))
		}
		// Spot-check a CHI against a direct build.
		roi := Rect{1, 2, 14, 15}
		vr := ValueRange{Lo: 0.3, Hi: 1.0}
		for _, id := range ids[:5] {
			chi, _ := idx.ChiFor(id)
			direct, _ := Build(loader.masks[id], idx.Config())
			if chi.CPBounds(roi, vr) != direct.CPBounds(roi, vr) {
				t.Fatalf("workers %d: IndexAll CHI differs for mask %d", w, id)
			}
		}
	}
}

// strictSkip is a τ check that knows no id: it skips a candidate only
// when its best score is strictly worse than τ, never on a tie.
func strictSkip(t *TauTracker, b Bounds) bool { return t.SkipID(math.MinInt64, b) }

// TestTauTracker unit-tests the shared threshold refinement.
func TestTauTracker(t *testing.T) {
	tt := NewTauTracker(3, Desc)
	if strictSkip(tt, Bounds{0, 5}) {
		t.Fatal("tracker should not skip before k scores land")
	}
	for _, s := range []int64{10, 2, 7} {
		tt.Add(s, s)
	}
	// Top-3 = {10, 7, 2}, τ = 2.
	if !strictSkip(tt, Bounds{0, 1}) || strictSkip(tt, Bounds{0, 2}) {
		t.Fatalf("Desc τ after seed = %+v, want 2 with strict skip", tt.Held())
	}
	tt.Add(8, 8) // top-3 = {10, 8, 7}, τ = 7
	if !strictSkip(tt, Bounds{0, 6}) || strictSkip(tt, Bounds{0, 7}) {
		t.Fatalf("Desc τ after refine = %+v, want 7", tt.Held())
	}

	ta := NewTauTracker(2, Asc)
	for _, s := range []int64{10, 2, 7} {
		ta.Add(s, s)
	}
	// Bottom-2 = {2, 7}, τ = 7: skip iff Lo > 7.
	if !strictSkip(ta, Bounds{8, 100}) || strictSkip(ta, Bounds{7, 100}) {
		t.Fatalf("Asc τ = %+v, want 7", ta.Held())
	}
	ta.Add(3, 3) // bottom-2 = {2, 3}
	if !strictSkip(ta, Bounds{4, 100}) {
		t.Fatalf("Asc τ after refine = %+v, want 3", ta.Held())
	}

	// Ties rank by id, as the answer does: an equal score with a
	// smaller id takes τ's holder over, and a candidate whose best
	// score only ties τ is skipped iff its id is larger than the
	// holder's. A check that knows no id keeps the strict rule.
	for _, ord := range []Order{Desc, Asc} {
		tie := Bounds{0, 10} // a best score of 10
		if ord == Asc {
			tie = Bounds{10, 30}
		}
		g := NewTauTracker(2, ord)
		g.Add(5, 10)
		g.Add(7, 10) // best-2 = {(10, 5), (10, 7)}: τ 10 held by 7
		if m := g.tau.Load(); m == nil || *m != (ranked[int64]{10, 7}) {
			t.Fatalf("%v: gate %+v, want τ 10 held by 7", ord, m)
		}
		if !g.SkipID(8, tie) || g.SkipID(6, tie) {
			t.Fatalf("%v: a tie must skip id 8 and keep id 6 while 7 holds τ", ord)
		}
		g.Add(3, 10) // best-2 = {(10, 3), (10, 5)}: 3 takes 7's place
		if m := g.tau.Load(); m == nil || *m != (ranked[int64]{10, 5}) {
			t.Fatalf("%v: gate %+v, want τ 10 held by 5", ord, m)
		}
		if !g.SkipID(6, tie) || g.SkipID(4, tie) || strictSkip(g, tie) {
			t.Fatalf("%v: after the takeover a tie must skip id 6, keep id 4, and an id-less check must stay strict", ord)
		}
		g.Add(9, 10) // a tie with a larger id changes nothing
		if m := g.tau.Load(); *m != (ranked[int64]{10, 5}) {
			t.Fatalf("%v: gate %+v after a larger-id tie, want τ 10 held by 5", ord, m)
		}
	}

	// Pushes and landings publish through one tighten: the gate keeps
	// the tighter entry, whoever offered it. A push that ranks after
	// the held entry, or equals it, changes nothing; one before it
	// takes over, and a later landing that ranks after it does not
	// loosen it back.
	for _, ord := range []Order{Desc, Asc} {
		better := func(s int64) int64 { // a score s steps better than 10
			if ord == Asc {
				return 10 - s
			}
			return 10 + s
		}
		g := topGate{NewTauTracker(1, ord), []VerifyItem{{ID: 9}}}
		g.tighten(Scored{ID: 4, Score: float64(better(0))})
		held := func() ranked[int64] { t.Helper(); m := g.tau.Load(); return *m }
		for _, push := range []Scored{{1, float64(better(-1))}, {6, float64(better(0))}, {4, float64(better(0))}} {
			if g.tighten(push); held() != (ranked[int64]{10, 4}) {
				t.Fatalf("%v: push %+v loosened τ to %+v", ord, push, held())
			}
		}
		if g.tighten(Scored{2, float64(better(0))}); held() != (ranked[int64]{10, 2}) {
			t.Fatalf("%v: a tie with a smaller holder must take over, τ %+v", ord, held())
		}
		g.land(0, better(-3)) // the k-th best landing ranks after the push
		if held() != (ranked[int64]{10, 2}) {
			t.Fatalf("%v: a looser landing replaced τ: %+v", ord, held())
		}
		g.Add(7, better(2))
		if held() != (ranked[int64]{better(2), 7}) {
			t.Fatalf("%v: a tighter landing did not take over: %+v", ord, held())
		}
	}
}

// TestTauGatePrunesVerifyLoads is the saving a shard node makes with no
// push at all, on a sequential env: over the same best-first items, a
// gate rebuilt from a top-k request (k) and one rebuilt from an
// aggregation request each load strictly fewer masks than an open
// gate, every score they land equals the exact one, and every item
// they skip provably cannot place — its exact entry, or its group's,
// ranks after the k-th best of the whole query.
func TestTauGatePrunesVerifyLoads(t *testing.T) {
	// Saliency-shaped masks: their CP spreads far wider than the
	// bounds' slack, as on real data, so bounds can fall beyond τ.
	rng := rand.New(rand.NewSource(41))
	loader := &mapLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	env := &Env{Loader: loader, Index: idx}
	roi, vr := Rect{2, 3, 13, 14}, ValueRange{Lo: 0.5, Hi: 1.0}
	term := CPTerm{Region: FixedRegion(roi), Range: vr}
	const n, k = 60, 5
	cands := make([]CandBound, n)
	exact := map[int64]int64{}
	for i := range cands {
		id, m := int64(i+1), bimodalByteMask(rng, 16, 16)
		chi, _ := Build(m, idx.Config())
		loader.masks[id] = m
		idx.Add(id, chi)
		cands[i] = CandBound{ID: id, B: chi.CPBounds(roi, vr), Indexed: true}
		exact[id] = ExactCP(m, roi, vr)
	}
	// run verifies items under gate (open when nil), checking each
	// landed score; it returns which items landed.
	run := func(items []VerifyItem, gate *NodeGate) ([]bool, Stats) {
		t.Helper()
		landed := make([]bool, len(items))
		check := func(i int, score int64) {
			if landed[i] = true; score != exact[items[i].ID] {
				t.Fatalf("item %d landed %d, exact %d", i, score, exact[items[i].ID])
			}
		}
		var st Stats
		var err error
		if gate == nil {
			st, err = env.verifyItems(context.Background(), items, &newScoreTerm(term).plan, nil, check)
		} else {
			st, err = gate.Verify(context.Background(), env, items, term, check)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Loaded+st.RejectedByBounds != len(items) {
			t.Fatalf("stats %+v do not partition %d items", st, len(items))
		}
		return landed, st
	}
	for _, ord := range []Order{Desc, Asc} {
		// Top-k: items best-first, as the driver ships them.
		at := make([]int, n)
		for i := range at {
			at[i] = i
		}
		bestFirst(at, ord, func(i int) float64 { return float64(cands[i].B.best(ord)) })
		items := make([]VerifyItem, n)
		all := make([]Scored, n)
		for j, i := range at {
			items[j] = VerifyItem{ID: cands[i].ID, B: cands[i].B}
			all[i] = Scored{ID: cands[i].ID, Score: float64(exact[cands[i].ID])}
		}
		SortScored(all, ord)
		kth := ranked[int64]{int64(all[k-1].Score), all[k-1].ID}
		gate, err := RebuildGate(GateSpec{Ord: ord, K: k}, items)
		if err != nil {
			t.Fatal(err)
		}
		_, open := run(items, nil)
		landed, st := run(items, gate)
		if st.Loaded >= open.Loaded {
			t.Fatalf("%v top-k: the rebuilt gate loaded %d masks, an open one %d", ord, st.Loaded, open.Loaded)
		}
		for j, it := range items {
			if !landed[j] && !(ranked[int64]{exact[it.ID], it.ID}).after(kth, ord) {
				t.Fatalf("%v top-k: item %d (mask %d, exact %d) skipped, but it ranks no later than the k-th best %+v", ord, j, it.ID, exact[it.ID], kth)
			}
		}

		// Aggregation: MEAN over groups of three, shipped whole.
		groups := make([]Group, n/3)
		for g := range groups {
			groups[g] = Group{Key: int64(g + 1), IDs: []int64{int64(3*g + 1), int64(3*g + 2), int64(3*g + 3)}}
		}
		gs, _ := flattenGroups(groups)
		f64 := make([]float64, 2*n)
		gs = boundGroups(gs, cands, nil, Mean, f64)
		driver, gitems := newGroupGate(gs, cands, f64, Mean, k, ord)
		sub := make([]int, len(gitems))
		for i := range sub {
			sub[i] = i
		}
		ggate, err := RebuildGate(driver.Ship(sub), gitems)
		if err != nil {
			t.Fatal(err)
		}
		aggs := make([]Scored, len(groups))
		for g, gr := range groups {
			var s float64
			for _, id := range gr.IDs {
				s += float64(exact[id])
			}
			aggs[g] = Scored{ID: gr.Key, Score: s / 3}
		}
		byKey := map[int64]float64{}
		for _, a := range aggs {
			byKey[a.ID] = a.Score
		}
		SortScored(aggs, ord)
		gkth := ranked[float64]{aggs[k-1].Score, aggs[k-1].ID}
		_, open = run(gitems, nil)
		landed, st = run(gitems, ggate)
		if st.Loaded >= open.Loaded {
			t.Fatalf("%v agg: the rebuilt gate loaded %d masks, an open one %d", ord, st.Loaded, open.Loaded)
		}
		for j, it := range driver.items {
			key := driver.gs[it.G].key
			if !landed[j] && !(ranked[float64]{byKey[key], key}).after(gkth, ord) {
				t.Fatalf("%v agg: item %d of group %d (mean %v) skipped, but the group ranks no later than the k-th best %+v", ord, j, key, byKey[key], gkth)
			}
		}
	}
}

// TestGroupGateCountdown is the soundness trap of a shipped group gate:
// a node counts a group down from the members the request carries plus
// those elsewhere not yet landed, never from the driver's live count.
// Here one member of a three-member group landed at the driver before
// a (hedged or failover) attempt shipped all three; the node re-lands
// it, and the group must not complete until the other two land too.
func TestGroupGateCountdown(t *testing.T) {
	cands := []CandBound{
		{ID: 1, B: Bounds{0, 50}, Indexed: true},
		{ID: 2, B: Bounds{0, 50}, Indexed: true},
		{ID: 3, B: Bounds{0, 50}, Indexed: true},
		{ID: 4, B: Bounds{0, 50}, Indexed: true},
	}
	gs, _ := flattenGroups([]Group{{Key: 7, IDs: []int64{1, 2, 3}}, {Key: 8, IDs: []int64{4}}})
	f64 := make([]float64, 2*len(cands))
	gs = boundGroups(gs, cands, nil, Sum, f64)
	driver, items := newGroupGate(gs, cands, f64, Sum, 1, Desc)
	member := func(id int64) int { return slices.IndexFunc(items, func(it VerifyItem) bool { return it.ID == id }) }
	driver.land(member(1), 40)

	// Shard A carries masks 1 and 2, mask 3 lies on shard B.
	spec := driver.Ship([]int{member(1), member(2)})
	if len(spec.Groups) != 1 || spec.Groups[0].Pending != 1 {
		t.Fatalf("shipped groups %+v, want group 7 with mask 3 pending", spec.Groups)
	}
	node, err := RebuildGate(spec, []VerifyItem{items[member(1)], items[member(2)]})
	if err != nil {
		t.Fatal(err)
	}
	node.land(0, 40)
	node.land(1, 30)
	if got := node.g.(*groupGate).ranking(); len(got) != 0 {
		t.Fatalf("group completed with mask 3 still at its optimistic value: %v", got)
	}

	// One attempt carries all three: it completes once all three land.
	sub := []int{member(1), member(2), member(3)}
	spec = driver.Ship(sub)
	if spec.Groups[0].Pending != 0 {
		t.Fatalf("shipped %+v, want nothing pending", spec.Groups)
	}
	nitems := []VerifyItem{items[sub[0]], items[sub[1]], items[sub[2]]}
	if node, err = RebuildGate(spec, nitems); err != nil {
		t.Fatal(err)
	}
	ng := node.g.(*groupGate)
	ng.land(0, 40)
	ng.land(1, 30)
	if got := ng.ranking(); len(got) != 0 {
		t.Fatalf("group completed after re-landing mask 1 and landing mask 2: %v", got)
	}
	ng.land(2, 20)
	if got := ng.ranking(); !slices.Equal(got, []Scored{{ID: 7, Score: 90}}) {
		t.Fatalf("ranking %v after every member landed, want group 7 at 90", got)
	}
}

// TestMemoryIndexConcurrency is the satellite stress test: parallel
// Observe, ChiFor, Add and Encode on one index must be race-free and
// leave a fully populated, decodable index behind — including while the
// observed ids straddle a page boundary and force the page directory to
// grow under the readers.
func TestMemoryIndexConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 60
	masks := make(map[int64]*Mask, n)
	for i := 1; i <= n; i++ {
		masks[int64(i)] = randomMask(rng, 12, 12)
	}
	idx := NewMemoryIndex(Config{CellW: 3, CellH: 3, Edges: DefaultEdges(8)})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				id := int64((i+g*7)%n + 1)
				switch g % 3 {
				case 0:
					idx.Observe(id, masks[id])
				case 1:
					if _, err := idx.ChiFor(id); err != nil {
						t.Error(err)
						return
					}
					_ = idx.Len()
					_ = idx.SizeBytes()
				default:
					idx.Observe(id, masks[id])
					var buf bytes.Buffer
					if err := idx.Encode(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Every mask observed by at least one goroutine family.
	for i := 1; i <= n; i++ {
		chi, err := idx.ChiFor(int64(i))
		if err != nil || chi == nil {
			t.Fatalf("mask %d missing after concurrent observes (err %v)", i, err)
		}
	}
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMemoryIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != n {
		t.Fatalf("round trip lost entries: %d of %d", back.Len(), n)
	}

	// The storm: ids around the first page boundary and, further out,
	// around one that needs a longer directory. Four writers observe
	// the same ids in different orders, so every slot is contended.
	// Readers poll ChiFor on exactly those ids and take bounds; whatever
	// they see must be nil or the counts Build gives that id's mask. An
	// encoder snapshots the index mid-run, and each snapshot must decode
	// to entries that are each Build's too.
	var storm []int64
	for d := int64(-20); d < 20; d++ {
		storm = append(storm, chiPageSize+d, 3*chiPageSize+d)
	}
	maskOf := func(id int64) *Mask {
		if id <= n {
			return masks[id]
		}
		return masks[id%n+1]
	}
	roi, vr := Rect{2, 1, 11, 10}, ValueRange{Lo: 0.3, Hi: 0.9}
	want := make(map[int64]*CHI, n+len(storm))
	for id := int64(1); id <= n; id++ {
		want[id], _ = Build(maskOf(id), idx.Config())
	}
	for _, id := range storm {
		chi, err := Build(maskOf(id), idx.Config())
		if err != nil {
			t.Fatal(err)
		}
		want[id] = chi
	}
	same := func(chi *CHI, id int64) bool {
		w := want[id]
		return chi.W == w.W && chi.H == w.H && chi.GW == w.GW && chi.GH == w.GH &&
			slices.Equal(chi.Cum, w.Cum) && chi.CPBounds(roi, vr) == w.CPBounds(roi, vr)
	}
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := range storm {
				id := storm[(i*7+g*13)%len(storm)]
				idx.Observe(id, maskOf(id))
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &planTerms([]CPTerm{{Region: FixedRegion(roi), Range: vr}})[0]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := storm[(i+g*11)%len(storm)]
				chi, err := idx.ChiFor(id)
				if err != nil {
					t.Error(err)
					return
				}
				if chi != nil && (!same(chi, id) || p.bounds(chi, id) != want[id].CPBounds(roi, vr)) {
					t.Errorf("mask %d: reader saw an entry that is not Build's", id)
					return
				}
			}
		}(g)
	}
	snapshots := make(chan []byte, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(snapshots)
		for range cap(snapshots) {
			var buf bytes.Buffer
			if err := idx.Encode(&buf); err != nil {
				t.Error(err)
				return
			}
			snapshots <- buf.Bytes()
		}
	}()
	writers.Wait()
	close(stop)
	wg.Wait()
	for snap := range snapshots {
		back, err := ReadMemoryIndex(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("a mid-run snapshot does not decode: %v", err)
		}
		back.each(func(id int64, chi *CHI) {
			if want[id] == nil || !same(chi, id) {
				t.Errorf("mask %d: a mid-run snapshot holds an entry that is not Build's", id)
			}
		})
	}
	if got := idx.Len(); got != n+len(storm) {
		t.Fatalf("Len %d after the storm, want %d", got, n+len(storm))
	}
	// The storm's ids span pages 0 to 3, each one slab.
	stride := len(want[1].Cum)
	if got, wantSize := idx.SizeBytes(), int64(4*chiPageSize*stride*4); got != wantSize {
		t.Fatalf("SizeBytes %d after the storm, want %d", got, wantSize)
	}
	for _, id := range storm {
		if chi, _ := idx.ChiFor(id); chi == nil || !same(chi, id) {
			t.Fatalf("mask %d missing or wrong after the storm", id)
		}
	}
}

// TestMemoryIndexOutOfRangeIDs checks the table's edges: ids that
// cannot name a mask, and ids beyond the allocated pages, read as not
// indexed and are never stored.
func TestMemoryIndexOutOfRangeIDs(t *testing.T) {
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	m := randomMask(rand.New(rand.NewSource(3)), 8, 8)
	idx.Observe(7, m)
	const minID, maxID = -1 << 63, 1<<63 - 1
	for _, id := range []int64{minID, -5, 0, 8, chiPageSize, chiPageSize + 1, 1 << 40, maxID} {
		if chi, err := idx.ChiFor(id); chi != nil || err != nil {
			t.Errorf("ChiFor(%d) = %v, %v; want nil, nil", id, chi, err)
		}
	}
	for _, id := range []int64{minID, -5, 0, maxIndexID + 1, maxID} {
		idx.Observe(id, m)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len %d after observing ids that cannot name a mask, want 1", idx.Len())
	}
}

// BenchmarkChiFor is the index lookup every engine worker makes once
// per mask per query, alone and from GOMAXPROCS goroutines at once.
func BenchmarkChiFor(b *testing.B) {
	const n = 20000
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	chi, err := Build(randomMask(rand.New(rand.NewSource(1)), 16, 16), idx.Config())
	if err != nil {
		b.Fatal(err)
	}
	for id := int64(1); id <= n; id++ {
		idx.Add(id, chi)
	}
	ids := rand.New(rand.NewSource(2)).Perm(n)
	lookup := func(k int) {
		if c, _ := idx.ChiFor(int64(ids[k%n] + 1)); c == nil {
			b.Error("indexed id not found")
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookup(i)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var starts atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for k := int(starts.Add(1)) * 37; pb.Next(); k++ {
				lookup(k)
			}
		})
	})
}
