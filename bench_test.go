// Benchmarks that regenerate the paper's figures under `go test
// -bench`. One benchmark (family) exists per evaluation artifact:
//
//	BenchmarkFigure7_*   — Q1–Q5 across MaskSearch and the 3 baselines
//	                       (Table 2's masks-loaded counts are reported
//	                       as the masks/op metric)
//	BenchmarkFigure8_*   — random queries of each §4.3 type
//	BenchmarkFigure9_*   — Filter queries reporting FML (time~FML)
//	BenchmarkFigure11_*  — a multi-query workload under MS / MS-II / NumPy
//
// The benchmarks run on reduced stand-ins of the paper's datasets,
// generated per benchmark, so the whole suite completes in seconds.
// The per-layer benchmarks (CHI bounds and build, the verification
// kernel, mask loads) live in internal/core and internal/store; the
// end-to-end measurements are benchmark/ (BENCHMARK.json).
package masksearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"masksearch/internal/baseline"
	"masksearch/internal/core"
	"masksearch/internal/store"
	"masksearch/internal/workload"
)

// benchSeed drives every random query generator.
const benchSeed = 42

// The reduced WILDS and ImageNet stand-ins.
var (
	wildsQuick    = store.Spec{Name: "wilds-quick", Images: 100, Models: 2, W: 64, H: 64, Seed: 11, HumanAttention: true}
	imagenetQuick = store.Spec{Name: "imagenet-quick", Images: 200, Models: 1, W: 48, H: 48, Seed: 12}
)

// benchDataset is one generated dataset, opened, with a full CHI index
// at the paper's default (coarse) granularity: cells of W/4 pixels and
// 10 value edges.
type benchDataset struct {
	spec store.Spec
	st   *store.Store
	cat  *store.Catalog
	cfg  core.Config
	idx  *core.MemoryIndex
}

// openBenchDataset generates spec into a temporary directory, opens it
// and builds its index; both go away when b finishes.
func openBenchDataset(b *testing.B, spec store.Spec) *benchDataset {
	b.Helper()
	dir := b.TempDir()
	if err := store.Generate(dir, spec, 1, store.CodecRaw); err != nil {
		b.Fatal(err)
	}
	st, cat, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	d := &benchDataset{spec: spec, st: st, cat: cat, cfg: core.Config{
		CellW: max(2, spec.W/4), CellH: max(2, spec.H/4), Edges: core.DefaultEdges(10),
	}}
	d.idx = core.NewMemoryIndex(d.cfg)
	if _, err := core.IndexAll(context.Background(), st, d.idx, cat.MaskIDs(nil), core.Exec{}); err != nil {
		b.Fatal(err)
	}
	return d
}

func (d *benchDataset) env(ex core.Exec) *core.Env {
	return &core.Env{Loader: d.st, Index: d.idx, Exec: ex}
}

// engine is the query surface MaskSearch and the baselines share.
type engine interface {
	Name() string
	Filter(ctx context.Context, targets []int64, terms []core.CPTerm, pred core.Pred) ([]int64, core.Stats, error)
	TopK(ctx context.Context, targets []int64, terms []core.CPTerm, score core.Term, k int, ord core.Order) ([]core.Scored, core.Stats, error)
	AggTopK(ctx context.Context, groups []core.Group, terms []core.CPTerm, score core.Term, agg core.Agg, k int, ord core.Order) ([]core.Scored, core.Stats, error)
}

// maskSearch runs the indexed engine behind the engine interface.
type maskSearch struct{ env *core.Env }

func (maskSearch) Name() string { return "MaskSearch" }

func (m maskSearch) Filter(ctx context.Context, targets []int64, terms []core.CPTerm, pred core.Pred) ([]int64, core.Stats, error) {
	return core.Filter(ctx, m.env, targets, terms, pred)
}

func (m maskSearch) TopK(ctx context.Context, targets []int64, terms []core.CPTerm, score core.Term, k int, ord core.Order) ([]core.Scored, core.Stats, error) {
	return core.TopK(ctx, m.env, targets, terms, score, k, ord)
}

func (m maskSearch) AggTopK(ctx context.Context, groups []core.Group, terms []core.CPTerm, score core.Term, agg core.Agg, k int, ord core.Order) ([]core.Scored, core.Stats, error) {
	return core.AggTopK(ctx, m.env, groups, terms, score, agg, k, ord)
}

// tableQuery is one of the paper's Table 1 queries resolved against a
// dataset: an aggregation when groups is set, a filter when pred is,
// a top-k otherwise.
type tableQuery struct {
	name    string
	targets []int64
	groups  []core.Group
	terms   []core.CPTerm
	pred    core.Pred
	k       int
}

func (q tableQuery) run(ctx context.Context, e engine) error {
	var err error
	switch {
	case q.groups != nil:
		_, _, err = e.AggTopK(ctx, q.groups, q.terms, 0, core.Mean, q.k, core.Desc)
	case q.pred != nil:
		_, _, err = e.Filter(ctx, q.targets, q.terms, q.pred)
	default:
		_, _, err = e.TopK(ctx, q.targets, q.terms, 0, q.k, core.Desc)
	}
	return err
}

// tableQueries returns the five Table 1 stand-in queries on d:
//
//	Q1 — error analysis Filter: model-1 masks with high object saliency
//	Q2 — Top-K masks by overall high-saliency area
//	Q3 — per-image aggregation: mean object saliency, top images
//	Q4 — mispredicted masks whose object box the model ignored
//	Q5 — adversarial detection: saturated-patch filter over all masks
func tableQueries(d *benchDataset) []tableQuery {
	w, h := d.spec.W, d.spec.H
	object := func(lo float64) []core.CPTerm {
		return []core.CPTerm{{Region: d.cat.ObjectROI(), Range: core.ValueRange{Lo: lo, Hi: 1.0}}}
	}
	full := func(lo float64) []core.CPTerm {
		return []core.CPTerm{{Region: core.FixedRegion(core.Rect{X1: w, Y1: h}), Range: core.ValueRange{Lo: lo, Hi: 1.0}}}
	}
	saliency := func(e *store.Entry) bool { return e.MaskType == store.TypeSaliency }
	model1 := d.cat.MaskIDs(func(e *store.Entry) bool { return saliency(e) && e.ModelID == 1 })
	patch := max(2, w/8)
	return []tableQuery{
		{name: "Q1", targets: model1, terms: object(0.8), pred: core.Cmp{T: 0, Op: core.OpGt, C: int64(w * h / 64)}},
		{name: "Q2", targets: model1, terms: full(0.6), k: 25},
		{name: "Q3", groups: d.cat.GroupByImage(saliency), terms: object(0.5), k: 25},
		{name: "Q4", targets: d.cat.MaskIDs(func(e *store.Entry) bool { return saliency(e) && e.Mispredicted() }),
			terms: object(0.7), pred: core.Cmp{T: 0, Op: core.OpLt, C: int64(w * h / 32)}},
		{name: "Q5", targets: d.cat.MaskIDs(saliency), terms: full(0.94), pred: core.Cmp{T: 0, Op: core.OpGt, C: int64(patch * patch / 2)}},
	}
}

// BenchmarkFigure7 measures each Table 1 query on each system. The
// custom metric masks/op is the Table 2 count.
func BenchmarkFigure7(b *testing.B) {
	ctx := context.Background()
	for _, spec := range []store.Spec{wildsQuick, imagenetQuick} {
		d := openBenchDataset(b, spec)
		engines := []engine{
			maskSearch{d.env(core.Exec{})},
			baseline.NewFullScan(d.st),
			baseline.NewTupleScan(d.st),
			baseline.NewArraySlice(d.st),
		}
		for _, q := range tableQueries(d) {
			for _, e := range engines {
				b.Run(fmt.Sprintf("%s/%s/%s", spec.Name, q.name, e.Name()), func(b *testing.B) {
					before := d.st.Stats()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := q.run(ctx, e); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					st := d.st.Stats().Sub(before)
					b.ReportMetric(float64(st.MasksLoaded+st.RegionReads)/float64(b.N), "masks/op")
				})
			}
		}
	}
}

// BenchmarkFigure8 measures MaskSearch on the three §4.3 random query
// types (a fresh random query per iteration).
func BenchmarkFigure8(b *testing.B) {
	for _, spec := range []store.Spec{wildsQuick, imagenetQuick} {
		d := openBenchDataset(b, spec)
		benchRandomFamilies(b, d, spec.Name+"/", d.env(core.Exec{}))
	}
}

// benchRandomFamilies runs one sub-benchmark per §4.3 query family on
// env, each drawing a fresh random query per iteration.
func benchRandomFamilies(b *testing.B, d *benchDataset, prefix string, env *core.Env) {
	ctx := context.Background()
	ids := d.cat.MaskIDs(nil)
	groups := d.cat.GroupByImage(nil)
	w, h := d.spec.W, d.spec.H
	b.Run(prefix+"Filter", func(b *testing.B) {
		rng := rand.New(rand.NewSource(benchSeed))
		for i := 0; i < b.N; i++ {
			q := workload.RandomFilter(rng, d.cat, w, h, ids)
			if _, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.cat), q.Pred()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(prefix+"TopK", func(b *testing.B) {
		rng := rand.New(rand.NewSource(benchSeed))
		for i := 0; i < b.N; i++ {
			q := workload.RandomTopK(rng, w, h, ids)
			if _, _, err := core.TopK(ctx, env, q.Targets, q.Terms(), 0, q.K, q.Order); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(prefix+"Aggregation", func(b *testing.B) {
		rng := rand.New(rand.NewSource(benchSeed))
		for i := 0; i < b.N; i++ {
			q := workload.RandomAgg(rng, w, h, groups)
			if _, _, err := core.AggTopK(ctx, env, q.Groups, q.Terms(), 0, core.Mean, q.K, q.Order); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure9 measures Filter queries and reports the mean FML as
// a custom metric; time per op should track fml/op (Pearson r ≈ 1).
func BenchmarkFigure9(b *testing.B) {
	ctx := context.Background()
	for _, spec := range []store.Spec{wildsQuick, imagenetQuick} {
		d := openBenchDataset(b, spec)
		env := d.env(core.Exec{})
		ids := d.cat.MaskIDs(nil)
		b.Run(spec.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchSeed))
			var fmlSum float64
			for i := 0; i < b.N; i++ {
				q := workload.RandomFilter(rng, d.cat, spec.W, spec.H, ids)
				_, stats, err := core.Filter(ctx, env, q.Targets, q.Terms(d.cat), q.Pred())
				if err != nil {
					b.Fatal(err)
				}
				fmlSum += stats.FML()
			}
			b.ReportMetric(fmlSum/float64(b.N), "fml/op")
		})
	}
}

// BenchmarkFigure11 measures one full multi-query workload (Workload 2,
// p_seen = 0.5) per iteration under each execution mode.
func BenchmarkFigure11(b *testing.B) {
	ctx := context.Background()
	const nQueries = 15
	d := openBenchDataset(b, wildsQuick)
	queries := workload.MultiQuery(rand.New(rand.NewSource(benchSeed)), d.cat,
		d.spec.W, d.spec.H, nQueries, 0.5)
	run := func(b *testing.B, e engine) {
		for _, q := range queries {
			if _, _, err := e.Filter(ctx, q.Targets, q.Terms(d.cat), q.Pred()); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("MS-prebuilt", func(b *testing.B) {
		e := maskSearch{d.env(core.Exec{})}
		for i := 0; i < b.N; i++ {
			run(b, e)
		}
	})
	b.Run("MS-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := core.NewMemoryIndex(d.cfg)
			run(b, maskSearch{&core.Env{Loader: d.st, Index: idx, OnVerify: idx.Observe}})
		}
	})
	b.Run("NumPy", func(b *testing.B) {
		e := baseline.NewFullScan(d.st)
		for i := 0; i < b.N; i++ {
			run(b, e)
		}
	})
}

// BenchmarkEngine compares the sequential engine against the
// worker-pool engine (8 workers) on the three §4.3 query families.
// Parallel gains require actual cores; on one core par8 is ~1x.
func BenchmarkEngine(b *testing.B) {
	d := openBenchDataset(b, wildsQuick)
	for _, mode := range []struct {
		name string
		ex   core.Exec
	}{{"seq", core.Exec{}}, {"par8", core.Exec{Workers: 8}}} {
		benchRandomFamilies(b, d, mode.name+"/", d.env(mode.ex))
	}
}

// BenchmarkEagerIndexBuild measures full-dataset CHI construction,
// sequential vs 8 workers.
func BenchmarkEagerIndexBuild(b *testing.B) {
	ctx := context.Background()
	d := openBenchDataset(b, imagenetQuick)
	ids := d.cat.MaskIDs(nil)
	for _, mode := range []struct {
		name string
		ex   core.Exec
	}{{"seq", core.Exec{}}, {"par8", core.Exec{Workers: 8}}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := core.NewMemoryIndex(d.cfg)
				if _, err := core.IndexAll(ctx, d.st, ix, ids, mode.ex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
