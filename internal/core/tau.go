package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file holds what a ranking's verification skips by. Every answer
// ranks its entries by score in the query's direction, then toward the
// smaller id or group key (SortScored); the gates here rank candidates
// the same way. A candidate whose best possible entry ranks strictly
// after the k-th best entry landed so far provably cannot place — also
// when its best score only ties τ, if its id is the larger.

// ranked is one entry of a ranking: a score, and the id (mask id or
// group key) that breaks its ties.
type ranked[V int64 | float64] struct {
	score V
	id    int64
}

// after reports whether e ranks strictly after o in direction ord.
func (e ranked[V]) after(o ranked[V], ord Order) bool {
	if e.score != o.score {
		return (e.score < o.score) == (ord == Desc)
	}
	return e.id > o.id
}

// best is the optimistic end of b in direction ord: the best score its
// candidate may turn out to have.
func (b Bounds) best(ord Order) int64 {
	if ord == Asc {
		return b.Lo
	}
	return b.Hi
}

// kBest is a bounded heap of the k best entries offered, rooted at the
// worst of them: once it is full, the root is the k-th best so far.
type kBest[V int64 | float64] struct {
	ord Order
	k   int
	h   []ranked[V]
}

// add offers e and, once the heap is full, publishes its root — the
// k-th best entry — to tau whenever it changes.
func (b *kBest[V]) add(e ranked[V], tau *tauCell[V]) {
	switch {
	case len(b.h) < b.k:
		b.h = append(b.h, e)
		for i := len(b.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !b.h[i].after(b.h[p], b.ord) {
				break
			}
			b.h[i], b.h[p] = b.h[p], b.h[i]
			i = p
		}
	case b.h[0].after(e, b.ord):
		b.h[0] = e
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(b.h) && b.h[l].after(b.h[worst], b.ord) {
				worst = l
			}
			if r < len(b.h) && b.h[r].after(b.h[worst], b.ord) {
				worst = r
			}
			if worst == i {
				break
			}
			b.h[i], b.h[worst] = b.h[worst], b.h[i]
			i = worst
		}
	default:
		return
	}
	if len(b.h) == b.k {
		root := b.h[0]
		tau.p.Store(&root)
	}
}

// ranking returns the entries held, best first: once every candidate
// landed, the answer.
func (b *kBest[V]) ranking() []Scored {
	out := make([]Scored, len(b.h))
	for i, e := range b.h {
		out[i] = Scored{ID: e.id, Score: float64(e.score)}
	}
	SortScored(out, b.ord)
	return out
}

// tauCell publishes the k-th best entry — τ and the id holding it — as
// one pointer swap, so a reader never pairs one τ with another's
// holder. It is nil until k entries landed.
type tauCell[V int64 | float64] struct{ p atomic.Pointer[ranked[V]] }

// Load returns τ, or zero before one is published.
func (c *tauCell[V]) Load() V {
	if m := c.p.Load(); m != nil {
		return m.score
	}
	return 0
}

// TauGate is the threshold a top-k verification skips by: τ, the k-th
// best exact score landed so far, published together with the id that
// holds it. A candidate whose best possible score is strictly worse
// than τ, or equal to it with a larger id, ranks after the holder and
// can never place. The top-k driver's TauTracker is one, advanced as
// exact scores land; a shard node's is advanced by the coordinator's
// pushes, which carry τ without its holder, so a node gate keeps the
// strict rule and never skips a tie. τ only ever reaches a value that
// k landed scores justify, so a stale read is merely conservative.
type TauGate struct {
	ord Order
	tau tauCell[int64]
}

// NewTauGate returns an open gate (nothing may be skipped yet).
func NewTauGate(ord Order) *TauGate {
	return &TauGate{ord: ord}
}

// Set advances the gate to a τ that k landed exact scores justify,
// without its holder: no id ranks after an unknown holder, so ties are
// never skipped.
func (g *TauGate) Set(tau int64) {
	g.tau.p.Store(&ranked[int64]{tau, math.MaxInt64})
}

// Skip reports whether a candidate with bounds b provably cannot reach
// the k-th rank whatever its id: its best score is strictly worse than
// τ.
func (g *TauGate) Skip(b Bounds) bool { return g.SkipID(math.MinInt64, b) }

// SkipID reports whether candidate id with bounds b provably cannot
// reach the k-th rank: its best entry ranks strictly after τ's holder.
func (g *TauGate) SkipID(id int64, b Bounds) bool {
	m := g.tau.p.Load()
	if m == nil {
		return false
	}
	return ranked[int64]{b.best(g.ord), id}.after(*m, g.ord)
}

// Threshold reports the current τ; ok is false until one is set
// (before that no candidate may be skipped).
func (g *TauGate) Threshold() (tau int64, ok bool) {
	if m := g.tau.p.Load(); m != nil {
		return m.score, true
	}
	return 0, false
}

// Order reports the ranking direction the gate skips for.
func (g *TauGate) Order() Order { return g.ord }

// TauTracker maintains the k-th best landed (score, id) entry, in the
// answer's order, as the τ and holder of its TauGate. The top-k driver
// keeps one per query: every exact score, local or from any shard,
// lands here, and the gate is what local workers skip by and what
// remote nodes receive τ from.
type TauTracker struct {
	TauGate
	mu   sync.Mutex
	best kBest[int64]
}

func NewTauTracker(k int, ord Order) *TauTracker {
	return &TauTracker{TauGate: TauGate{ord: ord}, best: kBest[int64]{ord: ord, k: k}}
}

// Add lands candidate id's exact score. Each candidate must be added at
// most once: a duplicate would make the heap count one candidate twice
// and tighten τ beyond what the landed scores justify.
func (t *TauTracker) Add(id, score int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.best.add(ranked[int64]{score, id}, &t.tau)
}

// ranking returns the k best landed entries, best first.
func (t *TauTracker) ranking() []Scored {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.best.ranking()
}

// Gate is what a verification stage may skip items by. Skip reports
// whether item i, whose exact score lies in b, provably cannot place:
// before its load b is the item's bounds, during it the refinement's
// narrowing bounds. Skip may be called concurrently. Tau is the top-k
// threshold behind Skip, which a remote stage ships to its nodes; it is
// nil for a gate that cannot be shipped (aggregation's group gate), and
// remote verification then runs ungated.
type Gate interface {
	Skip(i int, b Bounds) bool
	Tau() *TauGate
}

// tauItems gates one verification call's items by a TauGate, each item
// by its id.
type tauItems struct {
	g     *TauGate
	items []VerifyItem
}

func (t tauItems) Skip(i int, b Bounds) bool { return t.g.SkipID(t.items[i].ID, b) }
func (t tauItems) Tau() *TauGate             { return t.g }

// groupGate is aggregation's gate: a k-best tracker of complete groups,
// keyed by group key. Every member carries an optimistic value — its
// bounds' high for Desc (+Inf when unindexed), its low for Asc — that
// re-tightens to its exact score when it lands. A group's optimistic
// aggregate folds those values with AggExact's arithmetic, which is
// monotone in every member, so it stays admissible. When a group's
// last member lands, its exact aggregate is offered to the tracker,
// whose k best complete groups are the answer. An item is skipped when
// its group's best possible entry, with the item at b, ranks after the
// k-th best complete group; its group then never completes, and so
// never enters the answer.
type groupGate struct {
	agg   Agg
	ord   Order
	gs    []aggGroup
	opt   []atomic.Uint64 // per member: optimistic value, as float64 bits
	items []groupItem
	tau   tauCell[float64]

	mu   sync.Mutex
	left []int // per group: members not landed yet
	best kBest[float64]
}

// groupItem places one verification item: its group (an index of gs),
// its member position, and whether its bounds come from a CHI.
type groupItem struct {
	g, m    int
	indexed bool
}

// newGroupGate gates the unknown members of gs over the flat member
// list cands, seeding optimistic values from boundGroups' member
// columns in f64 (lows, then highs). It returns the gate and the
// verification items, best-first: groups by their optimistic bound,
// ties in group order, members in member order. Groups complete from
// bounds alone land at once.
func newGroupGate(gs []aggGroup, cands []CandBound, f64 []float64, agg Agg, k int, ord Order) (*groupGate, []VerifyItem) {
	opt := f64[len(cands):]
	if ord == Asc {
		opt = f64[:len(cands)]
	}
	g := &groupGate{agg: agg, ord: ord, gs: gs, opt: make([]atomic.Uint64, len(cands)),
		left: make([]int, len(gs)), best: kBest[float64]{ord: ord, k: k}}
	order := make([]int, len(gs))
	for gi := range order {
		order[gi] = gi
	}
	bestFirst(order, ord, func(gi int) float64 { return gs[gi].best(ord) })
	n := 0
	for gi, gr := range gs {
		for m := gr.off; m < gr.off+gr.n; m++ {
			g.opt[m].Store(math.Float64bits(opt[m]))
			if !cands[m].Known {
				g.left[gi]++
			}
		}
		n += g.left[gi]
	}
	items := make([]VerifyItem, 0, n)
	g.items = make([]groupItem, 0, n)
	for _, gi := range order {
		gr := gs[gi]
		for m := gr.off; m < gr.off+gr.n; m++ {
			if c := cands[m]; !c.Known {
				items = append(items, VerifyItem{ID: c.ID, B: c.B})
				g.items = append(g.items, groupItem{gi, m, c.Indexed})
			}
		}
	}
	for gi := range gs {
		if g.left[gi] == 0 {
			g.complete(gi)
		}
	}
	return g, items
}

// fold is group gi's aggregate over its members' optimistic values,
// with member m (when it is one) at v.
func (g *groupGate) fold(gi, m int, v float64) float64 {
	gr := &g.gs[gi]
	return aggFold(g.agg, gr.n, func(i int) float64 {
		if gr.off+i == m {
			return v
		}
		return math.Float64frombits(g.opt[gr.off+i].Load())
	})
}

// complete offers group gi, every member landed, to the tracker. g.mu
// is held (or the gate not yet shared).
func (g *groupGate) complete(gi int) {
	g.best.add(ranked[float64]{g.fold(gi, -1, 0), g.gs[gi].key}, &g.tau)
}

// land re-tightens item j's member to its exact score and, when it was
// its group's last, completes the group.
func (g *groupGate) land(j int, score int64) {
	it := g.items[j]
	g.opt[it.m].Store(math.Float64bits(float64(score)))
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left[it.g]--; g.left[it.g] == 0 {
		g.complete(it.g)
	}
}

// Skip reports whether item j's group, with the item's score in b,
// provably ranks after the k-th best complete group. An unindexed
// member's bounds say nothing (its high is a placeholder), so it keeps
// its optimistic value until it lands.
func (g *groupGate) Skip(j int, b Bounds) bool {
	tau := g.tau.p.Load()
	if tau == nil {
		return false
	}
	it := g.items[j]
	v := math.Float64frombits(g.opt[it.m].Load())
	if it.indexed {
		v = float64(b.best(g.ord))
	}
	return ranked[float64]{g.fold(it.g, it.m, v), g.gs[it.g].key}.after(*tau, g.ord)
}

func (g *groupGate) Tau() *TauGate { return nil }

// ranking returns the k best complete groups, best first.
func (g *groupGate) ranking() []Scored {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.best.ranking()
}

// bestFirst sorts ascending positions into verification order: best
// optimistic bound first — high descending for Desc, low ascending for
// Asc — and ties toward the smaller position, which the drivers keep
// in id (group key) order, as the answer ranks. Verified in this
// order, the first k landings are the likeliest answer, so τ tightens
// soonest and the tail is skipped. Bounds, counts and their
// aggregates, are never negative; they are compared as float32, exact
// for counts up to 2^24: a coarser comparison only reorders, never
// changes an answer. The sort is a stable radix sort of the
// packed keys, a small fraction of a comparison sort's cost on the
// thousands of candidates a query verifies from.
func bestFirst(pos []int, ord Order, opt func(p int) float64) {
	keys := make([]uint64, 2*len(pos))
	keys, tmp := keys[:len(pos)], keys[len(pos):]
	for j, p := range pos {
		k := math.Float32bits(float32(opt(p))) // ordered as the bound: it is >= 0
		if ord == Desc {
			k = ^k
		}
		keys[j] = uint64(k)<<32 | uint64(uint32(p))
	}
	// Least significant byte of the bound first; a byte every key
	// shares is skipped. Stable, so ties keep their position order.
	for shift := 32; shift < 64 && len(keys) > 1; shift += 8 {
		var at [257]int
		for _, k := range keys {
			at[k>>shift&0xff+1]++
		}
		if at[keys[0]>>shift&0xff+1] == len(keys) {
			continue
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, k := range keys {
			d := k >> shift & 0xff
			tmp[at[d]] = k
			at[d]++
		}
		keys, tmp = tmp, keys
	}
	for j, k := range keys {
		pos[j] = int(uint32(k))
	}
}
