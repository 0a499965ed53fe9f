package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
)

// MaskLoader materializes masks by id. *store.Store implements it; so
// do in-memory test loaders. Loaders must be safe for concurrent use:
// the parallel engine issues LoadMask calls from many goroutines.
type MaskLoader interface {
	LoadMask(id int64) (*Mask, error)
}

// MaskRecycler is optionally implemented by loaders that recycle masks
// (the store reuses mask headers). The engine releases a mask back to
// its loader once verification (including the OnVerify callback) is done with it, so
// OnVerify implementations must not retain the mask or its backing
// slices past their return.
type MaskRecycler interface {
	ReleaseMask(m *Mask)
}

// ShardedLoader is optionally implemented by loaders that spread
// masks across independent storage shards (*store.ShardedStore does).
// The parallel engine uses it to group load-heavy work by shard, so
// each shard's file and cache arena serve a dedicated worker slice
// instead of every worker funneling through one shard at a time.
type ShardedLoader interface {
	// NumShards reports the shard count (1 disables grouping).
	NumShards() int
	// ShardOf maps a mask id to its owning shard in [0, NumShards).
	ShardOf(id int64) int
}

// Index resolves the CHI of a mask, returning (nil, nil) when the mask
// is not indexed (the engine then falls back to verification). Index
// implementations must be safe for concurrent use.
type Index interface {
	ChiFor(id int64) (*CHI, error)
}

// Env wires an executor to its storage and index. OnVerify, when set,
// observes every mask loaded during verification; the incremental
// indexing mode (§3.6) points it at MemoryIndex.Observe so future
// queries benefit from work already paid for. Exec selects sequential
// or worker-pool execution; OnVerify may be called concurrently when
// the pool is enabled.
type Env struct {
	Loader   MaskLoader
	Index    Index
	OnVerify func(id int64, m *Mask)
	Exec     Exec
}

// verify materializes one mask for the verification stage: it loads the
// mask, counts it Loaded, hands it to eval together with its CHI (nil
// when not indexed), shows it whole to OnVerify and recycles it to the
// loader (when supported) — whether or not eval scanned it to the end.
// st may be nil: the batch executor accounts loads per consumer.
func (e *Env) verify(id int64, st *Stats, eval func(chi *CHI, m *Mask)) error {
	if e.Loader == nil {
		return fmt.Errorf("core: no mask loader configured")
	}
	m, err := e.Loader.LoadMask(id)
	if err != nil {
		return fmt.Errorf("verify mask %d: %w", id, err)
	}
	if st != nil {
		st.Loaded++
	}
	chi, _ := e.chiFor(id, nil) // a failed lookup only costs the refinement
	eval(chi, m)
	if e.OnVerify != nil {
		e.OnVerify(id, m)
	}
	if r, ok := e.Loader.(MaskRecycler); ok {
		r.ReleaseMask(m)
	}
	return nil
}

// span is a run of adjacent residual cells (index bounds not exact) of
// one cell row, with their summed bounds.
type span struct {
	r      Rect
	lo, hi int64
}

// refine verifies one term on one loaded mask as the continuation of
// the bounds computation, not a second count: it recomputes the
// per-cell bounds from the mask's CHI, takes every cell with lo == hi
// from the index, merges the residual cells of each cell row into spans
// (so rows stay long) and counts only those from pixels, replacing each
// span's [lo, hi] by its exact count in the running total. With a nil
// stop the result is exact. Otherwise spans are counted widest slack
// first and refine returns as soon as stop accepts the running bounds,
// which always contain the exact CP and only narrow. Without a CHI, or
// with one of other dimensions than the mask, the region is one span.
func (p *termPlan) refine(c *CHI, m *Mask, id int64, stop func(Bounds) bool) Bounds {
	roi := p.region(id)
	if c == nil || c.W != m.W || c.H != m.H {
		n := p.rc.countMask(m, roi.Intersect(m.Bounds()))
		return Bounds{n, n}
	}
	g := p.chiPlanFor(c, roi)
	cells := g.cells
	if roi != g.roi {
		var buf [coverBuf]coverCell
		cells = g.cover(buf[:0], roi)
	}
	var total Bounds
	var sbuf [coverBuf]span
	spans := sbuf[:0]
	for i := range cells {
		cell := &cells[i]
		lo, hi := g.cellBounds(c.Cum[cell.base:cell.base+len(g.edges)], cell.ovl, cell.out)
		total.Lo += lo
		total.Hi += hi
		if lo == hi {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1].r.Y0 == cell.r.Y0 && spans[n-1].r.X1 == cell.r.X0 {
			spans[n-1].r.X1 = cell.r.X1
			spans[n-1].lo += lo
			spans[n-1].hi += hi
		} else {
			spans = append(spans, span{cell.r, lo, hi})
		}
	}
	if stop != nil {
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(b.hi-b.lo, a.hi-a.lo) })
	}
	for i := range spans {
		n := p.rc.countMask(m, spans[i].r)
		total.Lo += n - spans[i].lo
		total.Hi += n - spans[i].hi
		if stop != nil && i+1 < len(spans) && stop(total) {
			break
		}
	}
	return total
}

// boundsInto fills bs with every term's index bounds for mask id;
// without a CHI nothing is known.
func boundsInto(bs []Bounds, plans []termPlan, chi *CHI, id int64) {
	for t := range plans {
		bs[t] = Bounds{0, unknownHi}
		if chi != nil {
			bs[t] = plans[t].bounds(chi, id)
		}
	}
}

// decide settles pred for one loaded mask whose terms' bounds so far
// are in bs. Filter results carry ids only, so the decision is all that
// is needed: terms are refined one by one, each against the others'
// current bounds, until some span's count lets the bounds decide pred.
func decide(plans []termPlan, pred Pred, chi *CHI, m *Mask, id int64, bs []Bounds) bool {
	for t := range plans {
		bs[t] = plans[t].refine(chi, m, id, func(b Bounds) bool {
			bs[t] = b
			return pred.FromBounds(bs) != Unknown
		})
		if d := pred.FromBounds(bs); d != Unknown {
			return d == True
		}
	}
	// Every term is exact and pred still abstains from the bounds.
	vals := make([]int64, len(bs))
	for t, b := range bs {
		vals[t] = b.Lo
	}
	return pred.Eval(vals)
}

// chiFor looks up the CHI for id, tolerating a nil index; st, when
// non-nil, counts the hit.
func (e *Env) chiFor(id int64, st *Stats) (*CHI, error) {
	if e.Index == nil {
		return nil, nil
	}
	chi, err := e.Index.ChiFor(id)
	if err != nil {
		return nil, err
	}
	if chi != nil && st != nil {
		st.IndexHits++
	}
	return chi, nil
}

// CheckCtx polls for cancellation every 256th iteration; executors
// and baselines share it so their ctx semantics cannot diverge.
func CheckCtx(ctx context.Context, i int) error {
	if i&255 == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// filterBounds is the filter stage for one target: decide from CHI
// bounds when possible, counting the decision, and leave the terms'
// bounds in bs (caller-owned scratch of len(plans)).
func (e *Env) filterBounds(id int64, plans []termPlan, pred Pred, bs []Bounds, st *Stats) (Tri, error) {
	if len(plans) == 0 {
		st.AcceptedByBounds++ // metadata-only predicate: nothing to bound or verify
		return True, nil
	}
	chi, err := e.chiFor(id, st)
	if err != nil {
		return Unknown, err
	}
	boundsInto(bs, plans, chi, id)
	decision := Unknown
	if chi != nil {
		decision = pred.FromBounds(bs)
	}
	switch decision {
	case True:
		st.AcceptedByBounds++
	case False:
		st.RejectedByBounds++
	}
	return decision, nil
}

// filterTarget resolves one target: from its bounds when they decide,
// otherwise by loading the mask and refining the bounds on it.
func (e *Env) filterTarget(id int64, plans []termPlan, pred Pred, bs []Bounds, st *Stats) (bool, error) {
	decision, err := e.filterBounds(id, plans, pred, bs, st)
	if err != nil || decision != Unknown {
		return decision == True, err
	}
	var keep bool
	err = e.verify(id, st, func(chi *CHI, m *Mask) { keep = decide(plans, pred, chi, m, id, bs) })
	return keep, err
}

// Streaming chunk sizes: FilterEmit starts small so the first match
// surfaces after a handful of loads, then doubles the chunk so a
// consumer that drains the whole stream still amortizes per-chunk
// overhead (and keeps the worker pool busy on large inputs).
const (
	streamChunkMin = 32
	streamChunkMax = 1024
)

// FilterEmit is the streaming Filter: it scans targets in growing
// chunks — each chunk through the same sequential or worker-pool
// engine as Filter — and emits matching ids in target order as each
// chunk is decided. emit returns false to stop the scan; the tail's
// masks are then never loaded, which is what makes pagination-style
// consumers strictly cheaper than materializing the full result. A
// fully-consumed FilterEmit emits exactly Filter's ids in Filter's
// order; its Stats then equal Filter's, except that Targets counts
// only the scanned prefix when the consumer stops early.
func FilterEmit(ctx context.Context, env *Env, targets []int64, terms []CPTerm, pred Pred, emit func(id int64) bool) (Stats, error) {
	var st Stats
	chunk := streamChunkMin
	for off := 0; off < len(targets); {
		n := min(chunk, len(targets)-off)
		ids, cst, err := Filter(ctx, env, targets[off:off+n], terms, pred)
		st.Merge(cst)
		if err != nil {
			return st, err
		}
		for _, id := range ids {
			if !emit(id) {
				return st, nil
			}
		}
		off += n
		chunk = min(2*chunk, streamChunkMax)
	}
	return st, nil
}

// Filter returns the target ids whose term values satisfy pred, in
// target order. The filter stage decides as many masks as possible
// from CHI bounds; only masks the bounds cannot decide are loaded and
// verified exactly. With env.Exec configured for a worker pool the
// per-target work fans out across goroutines; results and stats are
// identical to the sequential engine.
func Filter(ctx context.Context, env *Env, targets []int64, terms []CPTerm, pred Pred) ([]int64, Stats, error) {
	keep, st, err := FilterDecide(ctx, env, targets, terms, pred)
	if err != nil {
		return nil, st, err
	}
	var out []int64
	for i, ok := range keep {
		if ok {
			out = append(out, targets[i])
		}
	}
	return out, st, nil
}
