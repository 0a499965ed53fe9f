package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// blobByteMask is a saliency-shaped byte mask like the generator's: a
// Gaussian bump over noise drawn per 4x4 block.
func blobByteMask(rng *rand.Rand, w, h int) *Mask {
	m := NewByteMask(w, h)
	cx, cy := rng.Intn(w), rng.Intn(h)
	sigma, peak := float64(w)*(0.05+0.2*rng.Float64()), 0.3+0.7*rng.Float64()
	noise := make([]float64, (w/4+1)*(h/4+1))
	for i := range noise {
		noise[i] = 0.12 * rng.Float64()
	}
	for y := range h {
		for x := range w {
			dx, dy := float64(x-cx), float64(y-cy)
			v := peak*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma)) + noise[(y/4)*(w/4+1)+x/4]
			m.Bytes[y*w+x] = byte(math.Round(min(v, 1) * 255))
		}
	}
	return m
}

// rankBench is the ranking microbenchmarks' fixture: 4 500 indexed
// 64x64 saliency masks in memory, grouped three to an image as in
// wilds-sim, and a §4.3-style query list (a region of a tenth to
// three fifths of a side, mostly top-closed ranges, k in [5, 35)).
var rankBench = sync.OnceValue(func() (f struct {
	env    *Env
	ids    []int64
	groups []Group
}) {
	const n, w, h = 4500, 64, 64
	rng := rand.New(rand.NewSource(35))
	loader := &syncLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: w / 4, CellH: h / 4, Edges: DefaultEdges(10)})
	ids := make([]int64, n)
	groups := make([]Group, n/3)
	for i := range ids {
		ids[i] = int64(i + 1)
		m := blobByteMask(rng, w, h)
		loader.masks[ids[i]] = m
		idx.Observe(ids[i], m)
	}
	for g := range groups {
		groups[g] = Group{Key: int64(g + 1), IDs: ids[3*g : 3*g+3]}
	}
	f.env, f.ids, f.groups = &Env{Loader: loader, Index: idx, Exec: Exec{Workers: 2}}, ids, groups
	return f
})

// rankBenchQuery draws the i-th query term and k of the benchmark list.
func rankBenchQuery(i int) ([]CPTerm, int) {
	rng := rand.New(rand.NewSource(int64(i % 64)))
	rw, rh := 6+rng.Intn(32), 6+rng.Intn(32)
	x0, y0 := rng.Intn(64-rw+1), rng.Intn(64-rh+1)
	vr := ValueRange{Lo: 0.05 * float64(5+rng.Intn(13)), Hi: 1}
	if rng.Float64() < 0.2 {
		vr.Hi = vr.Lo + 0.1 + 0.05*float64(rng.Intn(3))
	}
	return []CPTerm{{Region: FixedRegion(Rect{x0, y0, x0 + rw, y0 + rh}), Range: vr}}, 5 + rng.Intn(30)
}

// BenchmarkTopK is the top-k driver over the local stages at workers 2,
// per order; loads/op is the masks verification loaded.
func BenchmarkTopK(b *testing.B) {
	env, ids := rankBench().env, rankBench().ids
	for _, ord := range []Order{Desc, Asc} {
		b.Run(ord.String(), func(b *testing.B) {
			loads, i := 0, 0
			for b.Loop() {
				terms, k := rankBenchQuery(i)
				_, st, err := TopK(context.Background(), env, ids, terms, 0, k, ord)
				if err != nil {
					b.Fatal(err)
				}
				loads += st.Loaded
				i++
			}
			b.ReportMetric(float64(loads)/float64(i), "loads/op")
		})
	}
}

// BenchmarkAggTopK is the aggregation driver over the local stages at
// workers 2, per order, cycling through the four aggregates.
func BenchmarkAggTopK(b *testing.B) {
	env, groups := rankBench().env, rankBench().groups
	for _, ord := range []Order{Desc, Asc} {
		b.Run(ord.String(), func(b *testing.B) {
			loads, i := 0, 0
			for b.Loop() {
				terms, k := rankBenchQuery(i)
				_, st, err := AggTopK(context.Background(), env, groups, terms, 0, Agg(i%4), k, ord)
				if err != nil {
					b.Fatal(err)
				}
				loads += st.Loaded
				i++
			}
			b.ReportMetric(float64(loads)/float64(i), "loads/op")
		})
	}
}

// tieFixture is the ranking-ties fixture: 16x16 byte masks whose
// top-left 8x8 quadrant holds one constant value in every mask and
// whose other pixels come from a small palette, so most terms tie
// across most masks. Every third mask is unindexed (an aggregation
// member with a +Inf high), and the masks form groups of one to five
// members whose keys are shuffled against member ids.
func tieFixture(rng *rand.Rand, n int) (*syncLoader, *MemoryIndex, []int64, []Group) {
	const w, h = 16, 16
	palette := []uint8{0, 64, 128, 192, 250, 255}
	loader := &syncLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i + 1)
		m := NewByteMask(w, h)
		for p := range m.Bytes {
			if x, y := p%w, p/w; x < 8 && y < 8 {
				m.Bytes[p] = 128
			} else {
				m.Bytes[p] = palette[rng.Intn(len(palette))]
			}
		}
		loader.masks[ids[i]] = m
		if i%3 != 2 {
			idx.Observe(ids[i], m)
		}
	}
	var groups []Group
	keys := rng.Perm(n)
	for off := 0; off < n; {
		size := min(1+rng.Intn(5), n-off)
		groups = append(groups, Group{Key: int64(keys[len(groups)]), IDs: ids[off : off+size]})
		off += size
	}
	return loader, idx, ids, groups
}

// tieTerms are the fixture's query terms: each ties most or all masks.
var tieTerms = []struct {
	name string
	term CPTerm
}{
	// Exact from the index: every mask scores 64.
	{"constant aligned", CPTerm{Region: FixedRegion(Rect{0, 0, 8, 8}), Range: ValueRange{Lo: 0.4, Hi: 0.6}}},
	// Inexact bounds over the constant quadrant: every mask scores 36.
	{"constant unaligned", CPTerm{Region: FixedRegion(Rect{1, 1, 7, 7}), Range: ValueRange{Lo: 0.45, Hi: 0.55}}},
	// Nothing satisfies: 250 lies in the bin but beyond the range, so
	// bounds are inexact and every mask scores 0.
	{"nothing", CPTerm{Region: FixedRegion(Rect{3, 3, 15, 14}), Range: ValueRange{Lo: 0.85, Hi: 0.95}}},
	// Everything satisfies: every mask scores the region's area.
	{"everything", CPTerm{Region: FixedRegion(Rect{2, 1, 13, 15}), Range: ValueRange{Lo: 0, Hi: 1}}},
	// Few distinct values: the palette straddles the band.
	{"palette band", CPTerm{Region: FixedRegion(Rect{5, 2, 14, 11}), Range: ValueRange{Lo: 0.7, Hi: 1}}},
	// Half constant, half palette.
	{"straddling", CPTerm{Region: FixedRegion(Rect{6, 6, 10, 10}), Range: ValueRange{Lo: 0.4, Hi: 0.6}}},
}

// bruteTopK and bruteAgg are the rankings' oracles: every score exact,
// sorted as the answer ranks, cut at k (k <= 0 is all).
func bruteTopK(loader *syncLoader, ids []int64, t CPTerm, k int, ord Order) []Scored {
	out := make([]Scored, len(ids))
	for i, id := range ids {
		out[i] = Scored{ID: id, Score: float64(t.Eval(id, loader.masks[id]))}
	}
	SortScored(out, ord)
	return out[:clampK(k, len(out))]
}

func bruteAgg(loader *syncLoader, groups []Group, t CPTerm, agg Agg, k int, ord Order) []Scored {
	out := make([]Scored, len(groups))
	for i, g := range groups {
		vals := make([]float64, len(g.IDs))
		for j, id := range g.IDs {
			vals[j] = float64(t.Eval(id, loader.masks[id]))
		}
		out[i] = Scored{ID: g.Key, Score: AggExact(agg, vals)}
	}
	SortScored(out, ord)
	return out[:clampK(k, len(out))]
}

// TestRankingTiesMatchBruteForce holds TopK and AggTopK to the
// brute-force oracle where scores mostly tie — where the tie-aware τ,
// best-first order and group gate decide most — over both orders, all
// four aggregates, k in {1, 3, all} and workers {1, 2, 8}, each query
// standalone and all of them as one Batch. Stats partition targets
// (invariant 4) in every run.
func TestRankingTiesMatchBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(51))
	loader, idx, ids, groups := tieFixture(rng, 90)
	var qs []batchQuery
	var termOf []string
	for _, tt := range tieTerms {
		terms := []CPTerm{tt.term}
		for _, ord := range []Order{Desc, Asc} {
			for _, k := range []int{1, 3, 0} {
				qs = append(qs, batchQuery{kind: "topk", targets: ids, terms: terms, k: k, order: ord})
				for agg := range Agg(4) {
					qs = append(qs, batchQuery{kind: "agg", groups: groups, terms: terms, agg: agg, k: k, order: ord})
				}
				for len(termOf) < len(qs) {
					termOf = append(termOf, tt.name)
				}
			}
		}
	}
	want := make([]string, len(qs))
	verified := 0
	for i, q := range qs {
		if q.kind == "topk" {
			want[i] = fmt.Sprint(bruteTopK(loader, ids, q.terms[0], q.k, q.order))
		} else {
			want[i] = fmt.Sprint(bruteAgg(loader, groups, q.terms[0], q.agg, q.k, q.order))
		}
		r, err := q.run(ctx, &Env{Loader: loader, Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		verified += r.st.Loaded
	}
	if verified == 0 {
		t.Fatal("the fixture verifies nothing: every score is exact from the index")
	}
	check := func(how string, i int, r batchResult) {
		t.Helper()
		q := qs[i]
		name := fmt.Sprintf("%s %q %s %v k=%d", how, termOf[i], q.kind, q.order, q.k)
		if q.kind == "agg" {
			name += " " + q.agg.String()
		}
		if got := fmt.Sprint(r.ranked); got != want[i] {
			t.Fatalf("%s: got  %s\nwant %s", name, got, want[i])
		}
		if st := r.st; st.Loaded+st.AcceptedByBounds+st.RejectedByBounds != st.Targets {
			t.Fatalf("%s: stats do not partition targets: %v", name, st)
		}
	}
	for _, w := range workerCounts {
		env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: w}}
		for i, q := range qs {
			r, err := q.run(ctx, env)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("workers %d", w), i, r)
		}
		rs, err := runBatch(ctx, env, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			check(fmt.Sprintf("batch workers %d", w), i, r)
		}
	}
}

// TestTauTrackerConcurrent lands scores from 8 goroutines while readers
// watch the gate: every (τ, holder) pair a reader sees must be a pair
// that landed — never one τ with another candidate's id — and the final
// pair is the k-th best of all landings.
func TestTauTrackerConcurrent(t *testing.T) {
	const n, k, writers = 4000, 25, 8
	rng := rand.New(rand.NewSource(52))
	score := make(map[int64]int64, n)
	all := make([]Scored, n)
	for i := range all {
		id := int64(i + 1)
		score[id] = int64(rng.Intn(40)) // mostly ties
		all[i] = Scored{ID: id, Score: float64(score[id])}
	}
	for _, ord := range []Order{Desc, Asc} {
		tt := NewTauTracker(k, ord)
		var wg sync.WaitGroup
		done := make(chan struct{})
		bad := make(chan string, 1)
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if m := tt.tau.Load(); m != nil && score[m.id] != m.score {
						select {
						case bad <- fmt.Sprintf("%v: read τ %d with holder %d, which landed %d", ord, m.score, m.id, score[m.id]):
						default:
						}
					}
				}
			}()
		}
		var lw sync.WaitGroup
		for w := range writers {
			lw.Add(1)
			go func() {
				defer lw.Done()
				for id := int64(w + 1); id <= n; id += writers {
					tt.Add(id, score[id])
				}
			}()
		}
		lw.Wait()
		close(done)
		wg.Wait()
		select {
		case msg := <-bad:
			t.Fatal(msg)
		default:
		}
		SortScored(all, ord)
		kth := all[k-1]
		if m := tt.tau.Load(); m == nil || m.id != kth.ID || float64(m.score) != kth.Score {
			t.Fatalf("%v: final gate %+v, want the k-th best %+v", ord, m, kth)
		}
	}
}

// TestBestFirstOrder holds bestFirst's radix sort to a comparison sort:
// best bound first in each order, ties in position order, over bounds
// with many ties, zeros, +Inf and magnitudes across every key byte.
// Bounds are counts and their aggregates, never negative.
func TestBestFirstOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := range 200 {
		n := rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = float64(rng.Intn(4)) // ties
			case 1:
				vals[i] = math.Inf(1)
			case 2:
				vals[i] = float64(rng.Intn(1000)) / 7
			default:
				vals[i] = float64(rng.Int63n(1 << uint(rng.Intn(40))))
			}
		}
		for _, ord := range []Order{Desc, Asc} {
			pos := make([]int, 0, n)
			for i := range n {
				if rng.Intn(4) > 0 {
					pos = append(pos, i)
				}
			}
			want := slices.Clone(pos)
			slices.SortStableFunc(want, func(a, b int) int {
				c := cmp.Compare(float32(vals[b]), float32(vals[a]))
				if ord == Asc {
					c = -c
				}
				return c
			})
			bestFirst(pos, ord, func(p int) float64 { return vals[p] })
			if !slices.Equal(pos, want) {
				t.Fatalf("iter %d %v: got %v, want %v", iter, ord, pos, want)
			}
		}
	}
}
