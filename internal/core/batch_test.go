package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// batchQuery is one driver of a test batch: a filter, top-k or
// aggregation query with its inputs.
type batchQuery struct {
	kind    string // "filter", "topk" or "agg"
	targets []int64
	groups  []Group
	terms   []CPTerm
	pred    Pred
	score   Term
	agg     Agg
	k       int
	order   Order
}

// batchResult is one batchQuery's answer and stats.
type batchResult struct {
	ids    []int64
	ranked []Scored
	st     Stats
}

// run drives q over s.
func (q batchQuery) run(ctx context.Context, s Stages) (r batchResult, err error) {
	switch q.kind {
	case "filter":
		r.ids, r.st, err = FilterOn(ctx, s, q.targets, q.terms, q.pred)
	case "topk":
		r.ranked, r.st, err = TopKOn(ctx, s, q.targets, q.terms, q.score, q.k, q.order)
	default:
		r.ranked, r.st, err = AggTopKOn(ctx, s, q.groups, q.terms, q.score, q.agg, q.k, q.order)
	}
	return r, err
}

// runBatch runs every query as one driver of a Batch over env.
func runBatch(ctx context.Context, env *Env, qs []batchQuery) ([]batchResult, error) {
	out := make([]batchResult, len(qs))
	err := Batch(ctx, env, len(qs), func(ctx context.Context, i int, s Stages) (err error) {
		out[i], err = qs[i].run(ctx, s)
		return err
	})
	return out, err
}

// randomBatch draws a mixed batch of filter/topk/agg queries over the
// fixture.
func randomBatch(rng *rand.Rand, ids []int64, groups []Group, w, h, n int) []batchQuery {
	qs := make([]batchQuery, n)
	for i := range qs {
		terms := []CPTerm{{Region: FixedRegion(randomROI(rng, w, h)), Range: randomVR(rng)}}
		switch rng.Intn(3) {
		case 0:
			qs[i] = batchQuery{
				kind: "filter", targets: ids, terms: terms,
				pred: Cmp{T: 0, Op: Op(rng.Intn(4)), C: int64(rng.Intn(w * h / 2))},
			}
		case 1:
			qs[i] = batchQuery{
				kind: "topk", targets: ids, terms: terms,
				k: 1 + rng.Intn(15), order: Order(rng.Intn(2)),
			}
		default:
			qs[i] = batchQuery{
				kind: "agg", groups: groups, terms: terms,
				agg: Agg(rng.Intn(4)), k: 1 + rng.Intn(8), order: Order(rng.Intn(2)),
			}
		}
	}
	return qs
}

// TestExecBatchMatchesStandalone is the batch-correctness property:
// for random mixed batches, every driver's output under Batch is
// byte-identical to running it alone through the sequential engine,
// at every worker count. Filter stats must match the standalone run
// exactly; TopK and aggregation follow the parallel-engine contract
// (identical results, Loaded + RejectedByBounds conserved, never more
// loads than standalone).
func TestExecBatchMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	loader, idx, ids := buildParFixture(rng, 90, 16, 16)
	var groups []Group
	for i := 0; i < len(ids); i += 6 {
		groups = append(groups, Group{Key: int64(i / 6), IDs: ids[i:min(i+6, len(ids))]})
	}
	for iter := 0; iter < 25; iter++ {
		qs := randomBatch(rng, ids, groups, 16, 16, 1+rng.Intn(6))
		want := make([]batchResult, len(qs))
		for i, q := range qs {
			w, err := q.run(ctx, &Env{Loader: loader, Index: idx})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		for _, w := range workerCounts {
			env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: w}}
			got, err := runBatch(ctx, env, qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if fmt.Sprint(got[i].ids) != fmt.Sprint(want[i].ids) ||
					fmt.Sprint(got[i].ranked) != fmt.Sprint(want[i].ranked) {
					t.Fatalf("iter %d workers %d query %d (%v): batch results differ:\ngot  %v %v\nwant %v %v",
						iter, w, i, qs[i].kind, got[i].ids, got[i].ranked, want[i].ids, want[i].ranked)
				}
				gs, ws := got[i].st, want[i].st
				if qs[i].kind != "filter" {
					if gs.Targets != ws.Targets || gs.IndexHits != ws.IndexHits ||
						gs.AcceptedByBounds != ws.AcceptedByBounds {
						t.Fatalf("iter %d workers %d query %d: deterministic %v stats differ: %v vs %v",
							iter, w, i, qs[i].kind, gs, ws)
					}
					if gs.Loaded+gs.RejectedByBounds != ws.Loaded+ws.RejectedByBounds || gs.Loaded > ws.Loaded {
						t.Fatalf("iter %d workers %d query %d: %v verification not conserved: %v vs %v",
							iter, w, i, qs[i].kind, gs, ws)
					}
				} else if gs != ws {
					t.Fatalf("iter %d workers %d query %d (%v): stats differ: %v vs %v",
						iter, w, i, qs[i].kind, gs, ws)
				}
			}
		}
	}
}

// countingLoader tracks distinct mask loads for the shared-load
// assertions.
type countingLoader struct {
	syncLoader
	perID map[int64]int
}

func (l *countingLoader) LoadMask(id int64) (*Mask, error) {
	m, err := l.syncLoader.LoadMask(id)
	if err == nil {
		l.mu.Lock()
		l.perID[id]++
		l.mu.Unlock()
	}
	return m, err
}

// TestExecBatchSharesLoads pins the whole point of Batch: without an
// index every target is verified, and a batch of n overlapping filter
// drivers loads each distinct mask exactly once — while the per-driver
// stats still bill every driver for its own verifications.
func TestExecBatchSharesLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base, _, ids := buildParFixture(rng, 40, 8, 8)
	loader := &countingLoader{syncLoader: syncLoader{masks: base.masks}, perID: map[int64]int{}}
	terms := func() []CPTerm {
		return []CPTerm{{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0.3, Hi: 1.0}}}
	}
	const nq = 5
	qs := make([]batchQuery, nq)
	for i := range qs {
		// Overlapping suffixes of the id space: mask ids[39] is wanted
		// by all five queries, ids[0] only by the first.
		qs[i] = batchQuery{kind: "filter", targets: ids[i*8:], terms: terms(),
			pred: Cmp{T: 0, Op: OpGt, C: int64(10 + i)}}
	}
	for _, w := range workerCounts {
		loader.perID = map[int64]int{}
		env := &Env{Loader: loader, Exec: Exec{Workers: w}}
		got, err := runBatch(context.Background(), env, qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(loader.perID) != len(ids) {
			t.Fatalf("workers %d: loaded %d distinct masks, want %d", w, len(loader.perID), len(ids))
		}
		for id, n := range loader.perID {
			if n != 1 {
				t.Fatalf("workers %d: mask %d loaded %d times, want exactly once", w, id, n)
			}
		}
		var billed int
		for i := range got {
			if got[i].st.Loaded != len(qs[i].targets) {
				t.Fatalf("workers %d: query %d billed %d loads, want %d (all targets verified)",
					w, i, got[i].st.Loaded, len(qs[i].targets))
			}
			billed += got[i].st.Loaded
		}
		if billed <= len(ids) {
			t.Fatalf("workers %d: batch billed %d query loads over %d physical loads — no sharing happened",
				w, billed, len(ids))
		}
	}
}

// TestExecBatchErrors pins the failure paths: a missing mask, a
// cancelled context, and an out-of-range score term all fail the
// batch.
func TestExecBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	loader, idx, ids := buildParFixture(rng, 40, 8, 8)
	terms := []CPTerm{{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0.4, Hi: 0.6}}}
	ctx := context.Background()

	delete(loader.masks, ids[17])
	env := &Env{Loader: loader, Exec: Exec{Workers: 4}}
	if _, err := runBatch(ctx, env, []batchQuery{
		{kind: "filter", targets: ids, terms: terms, pred: Cmp{T: 0, Op: OpGt, C: 3}},
	}); err == nil {
		t.Fatal("missing mask should fail the batch")
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	env = &Env{Loader: loader, Index: idx, Exec: Exec{Workers: 4}}
	if _, err := runBatch(cctx, env, []batchQuery{
		{kind: "filter", targets: ids, terms: terms, pred: Cmp{T: 0, Op: OpGt, C: 3}},
	}); err == nil {
		t.Fatal("cancelled ctx should abort the batch")
	}

	if _, err := runBatch(ctx, env, []batchQuery{
		{kind: "topk", targets: ids, terms: terms, score: 3, k: 5},
	}); err == nil {
		t.Fatal("out-of-range score term should fail the batch")
	}
}

// TestExecBatchEdgeCases covers the degenerate shapes: an empty batch,
// empty targets, a metadata-only filter (no terms), and a nil
// predicate.
func TestExecBatchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	loader, idx, ids := buildParFixture(rng, 20, 8, 8)
	ctx := context.Background()
	env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: 2}}

	if out, err := runBatch(ctx, env, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	out, err := runBatch(ctx, env, []batchQuery{
		{kind: "filter", targets: nil, terms: []CPTerm{{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0, Hi: 1}}}, pred: Cmp{T: 0, Op: OpGt, C: 0}},
		{kind: "filter", targets: ids}, // no terms, nil pred: metadata-only, all pass
		{kind: "topk", targets: nil, terms: []CPTerm{{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0, Hi: 1}}}, k: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].ids) != 0 || out[0].st.Loaded != 0 {
		t.Fatalf("empty targets: %v", out[0])
	}
	if len(out[1].ids) != len(ids) || out[1].st.AcceptedByBounds != len(ids) || out[1].st.Loaded != 0 {
		t.Fatalf("metadata-only filter: %v %v", out[1].ids, out[1].st)
	}
	if len(out[2].ranked) != 0 {
		t.Fatalf("empty topk: %v", out[2])
	}
}

// TestBatchLiveness mixes drivers that return before any round (LIMIT
// 0, a metadata-only filter, empty targets) with a LIMIT'd streaming
// filter whose chunks span several rounds, a top-k, and — in the
// failing variant — a streaming filter whose third chunk holds a
// missing mask. The batch must return (with the load error when the
// mask is missing), every goroutine must settle and every loaded mask
// must be released.
func TestBatchLiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 600
	inner := &syncLoader{masks: map[int64]*Mask{}}
	ids := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		inner.masks[int64(i)] = randomMask(rng, 8, 8)
		ids = append(ids, int64(i))
	}
	// ids[450] is in the third chunk (32 + 64 + 128 targets) of a
	// streaming filter over ids[300:].
	missing := ids[450]
	terms := []CPTerm{{Region: FixedRegion(Rect{X1: 8, Y1: 8}), Range: ValueRange{Lo: 0.5, Hi: 1.0}}}
	pred := Cmp{T: 0, Op: OpGt, C: 30}
	for _, workers := range []int{1, 8} {
		for _, fail := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/missing=%v", workers, fail), func(t *testing.T) {
				loader := &cancelLoader{inner: &syncLoader{masks: maps.Clone(inner.masks)}, cancel: func() {}}
				if fail {
					delete(loader.inner.masks, missing)
				}
				env := &Env{Loader: loader, Exec: Exec{Workers: workers}}
				var limited []int64
				drivers := []func(ctx context.Context, s Stages) error{
					func(context.Context, Stages) error { return nil }, // LIMIT 0
					func(context.Context, Stages) error {
						// Returns once the others have (most likely)
						// parked, so leaving must run their round.
						time.Sleep(20 * time.Millisecond)
						return nil
					},
					func(ctx context.Context, s Stages) error { // metadata-only
						_, _, err := FilterOn(ctx, s, ids, nil, nil)
						return err
					},
					func(ctx context.Context, s Stages) error { // empty targets
						_, _, err := FilterOn(ctx, s, nil, terms, pred)
						return err
					},
					func(ctx context.Context, s Stages) error {
						_, _, err := TopKOn(ctx, s, nil, terms, 0, 5, Desc)
						return err
					},
					func(ctx context.Context, s Stages) error { // LIMIT 100
						_, err := FilterEmit(ctx, s, ids, terms, pred, func(id int64) bool {
							limited = append(limited, id)
							return len(limited) < 100
						})
						return err
					},
					func(ctx context.Context, s Stages) error {
						_, _, err := TopKOn(ctx, s, ids[:300], terms, 0, 5, Desc)
						return err
					},
					func(ctx context.Context, s Stages) error {
						_, err := FilterEmit(ctx, s, ids[300:], terms, pred, func(int64) bool { return true })
						return err
					},
				}
				base := runtime.NumGoroutine()
				done := make(chan error, 1)
				go func() {
					done <- Batch(context.Background(), env, len(drivers), func(ctx context.Context, i int, s Stages) error {
						return drivers[i](ctx, s)
					})
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(20 * time.Second):
					t.Fatal("batch hung")
				}
				if fail {
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("mask %d", missing)) {
						t.Fatalf("batch over a missing mask returned %v", err)
					}
				} else if err != nil || len(limited) != 100 {
					t.Fatalf("batch: %v, LIMIT'd filter emitted %d ids", err, len(limited))
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines still running, %d before the batch", runtime.NumGoroutine(), base)
					}
				}
				if out := loader.outstanding.Load(); out != 0 {
					t.Fatalf("%d masks left unreleased", out)
				}
			})
		}
	}
}

// assemblyReference is what a round's assembly must produce: every
// (request, position) as a use, sorted on (id, request, position), and
// the first use of each distinct id, closed by len(uses).
func assemblyReference(reqs []*batchReq) ([]use, []int) {
	var uses []use
	for r, req := range reqs {
		for j, id := range req.ids {
			uses = append(uses, use{id, r, j})
		}
	}
	slices.SortFunc(uses, func(x, y use) int {
		return cmp.Or(cmp.Compare(x.id, y.id), cmp.Compare(x.r, y.r), cmp.Compare(x.j, y.j))
	})
	var runs []int
	for u := range uses {
		if u == 0 || uses[u].id != uses[u-1].id {
			runs = append(runs, u)
		}
	}
	return uses, append(runs, len(uses))
}

// checkAssembly assembles reqs on a and compares with the reference.
func checkAssembly(t *testing.T, a *assembly, reqs []*batchReq) {
	t.Helper()
	want, wantRuns := assemblyReference(reqs)
	uses, runs := a.assemble(reqs)
	if len(uses) != len(want) {
		t.Fatalf("%d requests: %d uses, want %d", len(reqs), len(uses), len(want))
	}
	for u := range want {
		if uses[u] != want[u] {
			t.Fatalf("%d requests: use %d is %+v, want %+v", len(reqs), u, uses[u], want[u])
		}
	}
	if !slices.Equal(runs, wantRuns) {
		t.Fatalf("%d requests: runs %v, want %v", len(reqs), runs, wantRuns)
	}
}

// randomRound draws n requests over a shared id pool: ascending (a
// filter's targets), strictly ascending, descending, shuffled (a
// verification's best-first items) or empty, with repeats inside a
// request and ids shared between requests.
func randomRound(rng *rand.Rand, n int) []*batchReq {
	base, pool := rng.Int63n(1<<50), 1+rng.Intn(400)
	reqs := make([]*batchReq, n)
	for r := range reqs {
		ids := make([]int64, rng.Intn(80))
		for j := range ids {
			ids[j] = base + int64(rng.Intn(pool))
		}
		switch rng.Intn(5) {
		case 0:
			slices.Sort(ids)
		case 1:
			slices.Sort(ids)
			ids = slices.Compact(ids)
		case 2:
			slices.Sort(ids)
			slices.Reverse(ids)
		case 3:
			ids = nil
		}
		reqs[r] = &batchReq{ids: ids}
	}
	return reqs
}

// TestBatchRoundAssembly holds a round's merge of id-ordered requests
// to a global sort on (id, request, position): the order each
// consumer is evaluated in, and so its τ landings. One assembly is
// reused across rounds of every size, as a batch reuses it.
func TestBatchRoundAssembly(t *testing.T) {
	var a assembly
	checkAssembly(t, &a, []*batchReq{{}})
	checkAssembly(t, &a, []*batchReq{{ids: []int64{7, 7, 7}}, {ids: []int64{7}}, {}, {ids: []int64{7, 7}}})
	checkAssembly(t, &a, []*batchReq{{ids: []int64{5, 3, 5, 1}}, {ids: []int64{1, 3, 5}}, {ids: []int64{5, 1}}})
	// Extreme ids, whose differences overflow an int64.
	wide := []int64{math.MaxInt64, 0, math.MinInt64, 0, 1 << 62, math.MaxInt64}
	checkAssembly(t, &a, []*batchReq{{ids: wide}, {ids: []int64{math.MinInt64, 0, math.MaxInt64}}, {ids: []int64{1 << 62, -1}}})
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 2, 5, 300} {
		for range 20 {
			checkAssembly(t, &a, randomRound(rng, n))
		}
	}
	for range 200 {
		checkAssembly(t, &a, randomRound(rng, 1+rng.Intn(300)))
	}
}

// FuzzBatchRound checks the round's merge against the reference sort on
// requests read from bytes: 255 closes a request as it is, 254 closes
// it sorted ascending, 253 and 252 are the ids math.MinInt64 and
// math.MaxInt64, and any other byte is an id from a pool of 64, so
// requests repeat and share ids. Past 300 requests, bytes extend the
// last one. The same assembly then assembles them again in reverse.
func FuzzBatchRound(f *testing.F) {
	f.Add([]byte{3, 1, 2, 254, 2, 2, 1, 255, 255, 7, 0, 7})
	f.Add([]byte{9, 8, 7, 6, 255, 6, 7, 8, 9, 254, 6, 6, 6})
	f.Add([]byte{255, 255, 255})
	f.Add([]byte{252, 3, 253, 252, 255, 253, 0, 252, 254, 252, 253})
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := []*batchReq{{}}
		for _, c := range data {
			last := reqs[len(reqs)-1]
			switch c {
			case 254:
				slices.Sort(last.ids)
				fallthrough
			case 255:
				if len(reqs) == 300 {
					break
				}
				reqs = append(reqs, &batchReq{})
			case 253:
				last.ids = append(last.ids, math.MinInt64)
			case 252:
				last.ids = append(last.ids, math.MaxInt64)
			default:
				last.ids = append(last.ids, int64(c%64))
			}
		}
		var a assembly
		checkAssembly(t, &a, reqs)
		slices.Reverse(reqs)
		checkAssembly(t, &a, reqs)
	})
}

// batchBench is BenchmarkBatchRound's fixture: 6 000 64x64 saliency
// masks in memory, every third unindexed as in a session that has not
// yet seen it, at workers 2.
var batchBench = sync.OnceValue(func() (f struct {
	env *Env
	ids []int64
}) {
	const n, w, h = 6000, 64, 64
	rng := rand.New(rand.NewSource(47))
	loader := &syncLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: w / 4, CellH: h / 4, Edges: DefaultEdges(10)})
	f.ids = make([]int64, n)
	for i := range f.ids {
		f.ids[i] = int64(i + 1)
		m := blobByteMask(rng, w, h)
		loader.masks[f.ids[i]] = m
		if i%3 != 2 {
			idx.Observe(f.ids[i], m)
		}
	}
	f.env = &Env{Loader: loader, Index: idx, Exec: Exec{Workers: 2}}
	return f
})

// BenchmarkBatchRound is one core.Batch shaped like a session.cold
// batch: four filters and one top-k over the 6 000 masks, their regions
// and ranges drawn per op from the ranking benchmarks' query list.
// Every filter keeps masks whose region is more than a tenth in range.
// loaded/op is the masks the five drivers evaluated exactly.
func BenchmarkBatchRound(b *testing.B) {
	env, ids := batchBench().env, batchBench().ids
	loaded, i := 0, 0
	for b.Loop() {
		var st [5]Stats
		err := Batch(context.Background(), env, 5, func(ctx context.Context, d int, s Stages) (err error) {
			terms, k := rankBenchQuery(5*i + d)
			if d == 4 {
				_, st[d], err = TopKOn(ctx, s, ids, terms, 0, k, Desc)
			} else {
				r := terms[0].Region(0)
				_, st[d], err = FilterOn(ctx, s, ids, terms, Cmp{T: 0, Op: OpGt, C: int64(r.Area() / 10)})
			}
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range st {
			loaded += s.Loaded
		}
		i++
	}
	b.ReportMetric(float64(loaded)/float64(i), "loaded/op")
}
