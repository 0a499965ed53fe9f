package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// tracker is a ranking gate's k best entries, a bounded heap rooted at
// the worst of them (over candidates for top-k, over complete groups
// for aggregation), and τ: once the heap is full its root, the k-th
// best entry so far, unless a push holds a tighter one. τ is one
// pointer, so a reader never pairs one τ with another's holder; it is
// nil until k entries landed (or a τ was pushed). mu guards the heap
// (and a group gate's countdown).
type tracker[V int64 | float64] struct {
	tau atomic.Pointer[ranked[V]]
	mu  sync.Mutex
	ord Order
	k   int
	h   []ranked[V]
}

// add offers e to the heap and, once it is full, its root to τ.
func (t *tracker[V]) add(e ranked[V]) {
	switch {
	case len(t.h) < t.k:
		t.h = append(t.h, e)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.h[i].after(t.h[p], t.ord) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
	case t.h[0].after(e, t.ord):
		t.h[0] = e
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(t.h) && t.h[l].after(t.h[worst], t.ord) {
				worst = l
			}
			if r < len(t.h) && t.h[r].after(t.h[worst], t.ord) {
				worst = r
			}
			if worst == i {
				break
			}
			t.h[i], t.h[worst] = t.h[worst], t.h[i]
			i = worst
		}
	default:
		return
	}
	if len(t.h) == t.k {
		t.publish(t.h[0])
	}
}

// publish makes e τ if it ranks strictly before τ, or there is none
// yet: τ is the tightest entry offered, by the heap or by a push, each
// of which k distinct candidates justify.
func (t *tracker[V]) publish(e ranked[V]) {
	for {
		m := t.tau.Load()
		if m != nil && !m.after(e, t.ord) || t.tau.CompareAndSwap(m, &e) {
			return
		}
	}
}

// Held reports τ, with its holder as ID, nil before there is one. A
// top-k count is exact in a float64.
func (t *tracker[V]) Held() *Scored {
	if m := t.tau.Load(); m != nil {
		return &Scored{m.id, float64(m.score)}
	}
	return nil
}

// tighten merges a pushed τ.
func (t *tracker[V]) tighten(x Scored) { t.publish(ranked[V]{V(x.Score), x.ID}) }

// entries returns the entries held, in heap order; t.mu is held.
func (t *tracker[V]) entries() []Scored {
	out := make([]Scored, len(t.h))
	for i, e := range t.h {
		out[i] = Scored{e.id, float64(e.score)}
	}
	return out
}

// ranking returns the entries held, best first: once every candidate
// landed, the answer.
func (t *tracker[V]) ranking() []Scored {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.entries()
	SortScored(out, t.ord)
	return out
}

// seed offers the entries the driver's tracker holds, except those
// held by one of the n ids own reads: a candidate or group this
// tracker may land itself would count twice.
func (t *tracker[V]) seed(best []Scored, n int, own func(i int) int64) {
	held := make(map[int64]bool, len(best))
	for _, e := range best {
		held[e.ID] = true
	}
	for i := range n {
		delete(held, own(i))
	}
	for _, e := range best {
		if held[e.ID] {
			t.add(ranked[V]{V(e.Score), e.ID})
		}
	}
}

// TauTracker is the top-k driver's tracker: every exact score, local or
// from any shard, lands here. A candidate whose best possible score is
// strictly worse than τ, or equal to it with a larger id, ranks after
// the holder and can never place; a stale τ is merely conservative.
type TauTracker struct{ tracker[int64] }

func NewTauTracker(k int, ord Order) *TauTracker {
	return &TauTracker{tracker[int64]{ord: ord, k: k}}
}

// Add lands candidate id's exact score. Each candidate must be added at
// most once: a duplicate would make the heap count one candidate twice
// and tighten τ beyond what the landed scores justify.
func (t *TauTracker) Add(id, score int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(ranked[int64]{score, id})
}

// SkipID reports whether candidate id with bounds b provably cannot
// reach the k-th rank: its best entry ranks strictly after τ's holder.
func (t *TauTracker) SkipID(id int64, b Bounds) bool {
	m := t.tau.Load()
	return m != nil && ranked[int64]{b.best(t.ord), id}.after(*m, t.ord)
}

// Gate is what a verification stage may skip items by. Skip reports
// whether item i, whose exact score lies in b, provably cannot place:
// before its load b is the item's bounds, during it the refinement's
// narrowing bounds. Skip may be called concurrently. A remote stage
// runs the same gate on its nodes: Ship describes it for the items
// sub of the call, which a node rebuilds (RebuildGate) and verifies
// under, and Held is the τ the stage pushes to them as it tightens.
type Gate interface {
	Skip(i int, b Bounds) bool
	Ship(sub []int) GateSpec
	Held() *Scored
}

// topGate gates one top-k verification call's items by the query's
// TauTracker, each item by its id.
type topGate struct {
	*TauTracker
	items []VerifyItem
}

func (t topGate) Skip(i int, b Bounds) bool { return t.SkipID(t.items[i].ID, b) }
func (t topGate) land(i int, score int64)   { t.Add(t.items[i].ID, score) }

// Ship is k, the direction and the entries landed so far: a node's k
// best entries, shipped or landed there, are k distinct candidates of
// the query, so its own τ is admissible for the whole query.
func (t topGate) Ship([]int) GateSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return GateSpec{Ord: t.ord, K: t.k, Best: t.entries()}
}

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
	tracker[float64]
	agg    Agg
	gs     []aggGroup
	opt    []atomic.Uint64 // per member: optimistic value, as float64 bits
	items  []GateItem
	left   []int  // per group: members not landed yet
	landed []bool // per item
}

// GateSpec is a ranking gate as a verify request ships it, for a node
// to rebuild over the request's items (RebuildGate): Ord, K, the
// entries Best its tracker holds and, for aggregation, Agg, the groups
// with an item in the request, their members' optimistic values (exact
// once landed) and each item's place.
type GateSpec struct {
	Ord    Order
	K      int
	Best   []Scored
	Agg    Agg
	Groups []GateGroup
	Opt    []float64
	Items  []GateItem
}

// GateGroup is one shipped group: its key, its members [Off, Off+N) of
// GateSpec.Opt, and Pending, how many of them the request does not
// carry and that had not landed when it was built. A node counts a
// group down from Pending plus its items in the request, never from
// the driver's live count: a hedged or failover attempt re-verifies
// members that already landed, and would count them twice.
type GateGroup struct {
	Key             int64
	Off, N, Pending int
}

// GateItem places an item: its group and member (indexes of Groups and
// Opt), and whether its bounds come from a CHI.
type GateItem struct {
	G, M    int
	Indexed bool
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
	order := make([]int, len(gs))
	for gi := range order {
		order[gi] = gi
	}
	bestFirst(order, ord, func(gi int) float64 { return gs[gi].best(ord) })
	g := &groupGate{tracker: tracker[float64]{ord: ord, k: k}, agg: agg, gs: gs, opt: make([]atomic.Uint64, len(cands)), left: make([]int, len(gs))}
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
	g.items, g.landed = make([]GateItem, 0, n), make([]bool, n)
	for _, gi := range order {
		gr := gs[gi]
		for m := gr.off; m < gr.off+gr.n; m++ {
			if c := cands[m]; !c.Known {
				items = append(items, VerifyItem{ID: c.ID, B: c.B})
				g.items = append(g.items, GateItem{gi, m, c.Indexed})
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

// RebuildGate rebuilds on a shard node the driver's gate that spec
// ships for items (top-k when it places no item), rejecting a spec
// whose places or values could make it skip unsoundly.
func RebuildGate(spec GateSpec, items []VerifyItem) (*NodeGate, error) {
	if spec.K < 1 || spec.Ord != Desc && spec.Ord != Asc || spec.Agg < Mean || spec.Agg > Max {
		return nil, fmt.Errorf("core: gate k %d, order %d, aggregate %d", spec.K, spec.Ord, spec.Agg)
	}
	if slices.ContainsFunc(spec.Best, func(e Scored) bool { return math.IsNaN(e.Score) }) || slices.ContainsFunc(spec.Opt, math.IsNaN) {
		return nil, fmt.Errorf("core: gate holds a NaN value")
	}
	if len(spec.Groups)+len(spec.Items) == 0 {
		t := NewTauTracker(spec.K, spec.Ord)
		t.seed(spec.Best, len(items), func(i int) int64 { return items[i].ID })
		g := topGate{t, items}
		return &NodeGate{g, g.land, g.tighten}, nil
	}
	if len(spec.Items) != len(items) {
		return nil, fmt.Errorf("core: gate places %d items of %d", len(spec.Items), len(items))
	}
	g := &groupGate{tracker: tracker[float64]{ord: spec.Ord, k: spec.K}, agg: spec.Agg, gs: make([]aggGroup, len(spec.Groups)),
		opt: make([]atomic.Uint64, len(spec.Opt)), left: make([]int, len(spec.Groups)), landed: make([]bool, len(items))}
	for gi, sg := range spec.Groups {
		if sg.Off < 0 || sg.N < 1 || sg.N > len(spec.Opt)-sg.Off || sg.Pending < 0 || sg.Pending > sg.N {
			return nil, fmt.Errorf("core: gate group %d: members [%d, +%d) of %d, %d pending", gi, sg.Off, sg.N, len(spec.Opt), sg.Pending)
		}
		g.gs[gi], g.left[gi] = aggGroup{key: sg.Key, off: sg.Off, n: sg.N}, sg.Pending
	}
	for m, v := range spec.Opt {
		g.opt[m].Store(math.Float64bits(v))
	}
	for i, it := range spec.Items {
		if it.G < 0 || it.G >= len(g.gs) || it.M < g.gs[it.G].off || it.M >= g.gs[it.G].off+g.gs[it.G].n {
			return nil, fmt.Errorf("core: gate item %d: group %d of %d, member %d outside it", i, it.G, len(g.gs), it.M)
		}
		g.left[it.G]++
	}
	g.items = spec.Items
	g.seed(spec.Best, len(g.gs), func(gi int) int64 { return g.gs[gi].key })
	return &NodeGate{g, g.land, g.tighten}, nil
}

// Ship is the groups of items sub with their members' current values,
// each counted down from Pending: its members neither in sub nor
// landed. It holds g.mu, under which a landed member's value is exact.
func (g *groupGate) Ship(sub []int) GateSpec {
	at := make([]int32, len(g.gs)) // shipped index + 1, per group
	g.mu.Lock()
	defer g.mu.Unlock()
	spec := GateSpec{Ord: g.ord, K: g.k, Best: g.entries(), Agg: g.agg, Items: make([]GateItem, len(sub))}
	for j, i := range sub {
		it, gr := g.items[i], g.gs[g.items[i].G]
		if at[it.G] == 0 {
			spec.Groups = append(spec.Groups, GateGroup{Key: gr.key, Off: len(spec.Opt), N: gr.n, Pending: g.left[it.G]})
			at[it.G] = int32(len(spec.Groups))
			for m := gr.off; m < gr.off+gr.n; m++ {
				spec.Opt = append(spec.Opt, math.Float64frombits(g.opt[m].Load()))
			}
		}
		sg := &spec.Groups[at[it.G]-1]
		if !g.landed[i] {
			sg.Pending--
		}
		spec.Items[j] = GateItem{int(at[it.G] - 1), sg.Off + it.M - gr.off, it.Indexed}
	}
	return spec
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
	g.add(ranked[float64]{g.fold(gi, -1, 0), g.gs[gi].key})
}

// land re-tightens item j's member to its exact score and, when it was
// its group's last, completes the group.
func (g *groupGate) land(j int, score int64) {
	it := g.items[j]
	g.opt[it.M].Store(math.Float64bits(float64(score)))
	g.mu.Lock()
	defer g.mu.Unlock()
	g.landed[j] = true
	if g.left[it.G]--; g.left[it.G] == 0 {
		g.complete(it.G)
	}
}

// Skip reports whether item j's group, with the item's score in b,
// provably ranks after the k-th best complete group. An unindexed
// member's bounds say nothing (its high is a placeholder), so it keeps
// its optimistic value until it lands.
func (g *groupGate) Skip(j int, b Bounds) bool {
	tau := g.tau.Load()
	if tau == nil {
		return false
	}
	it := g.items[j]
	v := math.Float64frombits(g.opt[it.M].Load())
	if it.Indexed {
		v = float64(b.best(g.ord))
	}
	return ranked[float64]{g.fold(it.G, it.M, v), g.gs[it.G].key}.after(*tau, g.ord)
}

// NodeGate is the gate a shard node verifies a request's items under:
// the driver's own gate, rebuilt from the request, advanced by the
// node's landings and tightened by the coordinator's pushes.
type NodeGate struct {
	g       Gate
	land    func(i int, score int64)
	tighten func(Scored)
}

// Tighten merges a pushed τ: the gate keeps the tighter of it and its
// own. It may be called while Verify runs.
func (n *NodeGate) Tighten(t Scored) { n.tighten(t) }

// Verify loads and refines the items the gate does not skip, at every
// worker count, landing each exact score in the gate and through emit
// (possibly concurrently): the verification loop of Env.Verify.
func (n *NodeGate) Verify(ctx context.Context, env *Env, items []VerifyItem, term CPTerm, emit func(i int, score int64)) (Stats, error) {
	return env.verifyItems(ctx, items, &newScoreTerm(term).plan, n.g, func(i int, score int64) {
		n.land(i, score)
		emit(i, score)
	})
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
