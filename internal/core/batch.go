package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
)

// Batch executes a multi-query workload (§4.5): it runs n drivers, each
// in its own goroutine as run(ctx, i, s), over one Stages that shares
// mask loads between them. Bounds pass straight through to env. Filter
// and Verify queue the masks they need and park the driver; once every
// live driver is parked or has returned, the last one to arrive runs
// the round: each distinct queued mask is loaded once, in id order,
// and refined for every driver that queued it. A driver whose τ gate
// rejects a mask is skipped, and a mask no driver still wants is not
// loaded at all.
//
// Each driver sees exactly what its stages would answer alone: decisions
// are per driver, a shared load refines every consumer with its own
// plan and stop, and τ stays per driver. Results are therefore
// byte-identical to running each driver alone on env, and stats are
// billed per driver: Loaded counts the masks a driver evaluated
// exactly, whether or not the physical load was shared. A batch's
// verification is always τ-gated, as on the worker pool, so a top-k
// driver may skip loads the sequential engine performs.
//
// A driver calls its stages one at a time, as the drivers in this
// package do: the round starts once each live driver has one call
// parked. The first error cancels the batch's ctx and is what every
// parked driver gets back; Batch returns it once every driver has
// returned.
func Batch(ctx context.Context, env *Env, n int, run func(ctx context.Context, i int, s Stages) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &batch{env: env, ctx: ctx, cancel: cancel, live: n, next: newRound()}
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := run(ctx, i, b)
			b.leave(err)
		}()
	}
	wg.Wait()
	return b.err
}

// batch is the rendezvous of one Batch's drivers, and the Stages they
// all run on.
type batch struct {
	env    *Env
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	live   int         // drivers that have not returned
	queued []*batchReq // the parked drivers' requests for the next round
	next   *round
	err    error // the first error, once any driver or round failed
}

// round is one barrier: parked drivers wait on done.
type round struct {
	done chan struct{}
	err  error
}

func newRound() *round { return &round{done: make(chan struct{})} }

// batchReq is one parked driver's share of a round: the masks it needs
// loaded, and what to do with each.
type batchReq struct {
	ids []int64
	// skip reports, before the load, that the driver no longer needs
	// ids[j]; nil never skips.
	skip func(j int) bool
	// eval refines ids[j] on its loaded mask as pool worker w.
	eval func(w, j int, chi *CHI, m *Mask)
	st   Stats
}

// fail records the batch's first error and cancels its ctx.
func (b *batch) fail(err error) {
	if err != nil && b.err == nil {
		b.err = err
		b.cancel()
	}
}

// park queues r for the next round and waits for it to run, running it
// itself when it is the last live driver to arrive. It returns the
// batch's first error, if any.
func (b *batch) park(r *batchReq) error {
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	b.queued = append(b.queued, r)
	rd := b.next
	if len(b.queued) == b.live {
		b.runLocked()
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
		<-rd.done
	}
	return rd.err
}

// leave retires a returning driver; if every other live driver is
// parked, it runs their round on the way out.
func (b *batch) leave(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fail(err)
	b.live--
	if b.live > 0 && len(b.queued) == b.live {
		b.runLocked()
	}
}

// runLocked runs the queued round with b.mu held on entry and exit,
// releasing it while masks load, and wakes the round's drivers.
func (b *batch) runLocked() {
	reqs, rd := b.queued, b.next
	b.queued, b.next = nil, newRound()
	b.mu.Unlock()
	err := b.load(reqs)
	b.mu.Lock()
	b.fail(err)
	rd.err = b.err
	close(rd.done)
}

// use is one request's interest in one mask.
type use struct {
	id   int64
	r, j int
}

// load loads every distinct id the requests queued once, in id order
// through env.forEach, and refines it for each request still wanting
// it. Stats are billed to each request from per-worker slots.
func (b *batch) load(reqs []*batchReq) error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	var uses []use
	for r, req := range reqs {
		for j, id := range req.ids {
			uses = append(uses, use{id, r, j})
		}
	}
	slices.SortFunc(uses, func(x, y use) int {
		return cmp.Or(cmp.Compare(x.id, y.id), cmp.Compare(x.r, y.r), cmp.Compare(x.j, y.j))
	})
	var runs []int // runs[k]: the first use of the k-th distinct id
	for u := range uses {
		if u == 0 || uses[u].id != uses[u-1].id {
			runs = append(runs, u)
		}
	}
	runs = append(runs, len(uses))
	// A cache line of spare capacity keeps one worker's slots off the
	// line its neighbour's allocation starts on.
	wst := make([][]Stats, b.env.Exec.workers())
	for w := range wst {
		wst[w] = make([]Stats, len(reqs), len(reqs)+2)
	}
	_, err := b.env.forEach(b.ctx, len(runs)-1, func(w, k int, _ *Stats) error {
		run := uses[runs[k]:runs[k+1]]
		// Each run belongs to this worker alone, so it is compacted in
		// place to the consumers that still want the mask.
		active := run[:0]
		for _, u := range run {
			if skip := reqs[u.r].skip; skip != nil && skip(u.j) {
				wst[w][u.r].RejectedByBounds++
				continue
			}
			active = append(active, u)
		}
		if len(active) == 0 {
			return nil
		}
		return b.env.verify(run[0].id, nil, func(chi *CHI, m *Mask) {
			for _, u := range active {
				wst[w][u.r].Loaded++
				reqs[u.r].eval(w, u.j, chi, m)
			}
		})
	})
	for w := range wst {
		for r := range reqs {
			reqs[r].st.Merge(wst[w][r])
		}
	}
	return err
}

// Bounds passes straight through to env: bounds load no mask.
func (b *batch) Bounds(ctx context.Context, ids []int64, term *ScoreTerm) ([]CandBound, []bool, Stats, error) {
	return b.env.Bounds(ctx, ids, term)
}

// Filter decides what the bounds can at once and parks the rest for the
// round.
func (b *batch) Filter(ctx context.Context, ids []int64, terms []CPTerm, pred Pred) ([]bool, []bool, Stats, error) {
	env := b.env
	if pred == nil {
		pred = And{}
	}
	plans := planTerms(terms)
	wbs := env.scratch(len(terms))
	keep, undec := make([]bool, len(ids)), make([]bool, len(ids))
	st, err := env.forEach(ctx, len(ids), func(w, i int, st *Stats) error {
		d, err := env.filterBounds(ids[i], plans, pred, wbs[w], st)
		keep[i], undec[i] = d == True, d == Unknown
		return err
	})
	st.Targets = len(ids)
	if err != nil {
		return nil, nil, st, err
	}
	r := &batchReq{}
	var at []int
	for i, u := range undec {
		if u {
			r.ids, at = append(r.ids, ids[i]), append(at, i)
		}
	}
	if len(r.ids) == 0 {
		return keep, nil, st, nil
	}
	r.eval = func(w, j int, chi *CHI, m *Mask) {
		bs := wbs[w]
		boundsInto(bs, plans, chi, r.ids[j])
		keep[at[j]] = decide(plans, pred, chi, m, r.ids[j], bs)
	}
	err = b.park(r)
	st.Merge(r.st)
	if err != nil {
		return nil, nil, st, err
	}
	return keep, nil, st, nil
}

// Rank runs rankOn on the batch: its bounds pass through, its
// verification parks for the round.
func (b *batch) Rank(ctx context.Context, targets []int64, term *ScoreTerm, tt *TauTracker) (Stats, error) {
	return rankOn(ctx, b, targets, term, tt, nil)
}

// Verify parks every item for the round, gated by the driver's gate.
func (b *batch) Verify(ctx context.Context, items []VerifyItem, term *ScoreTerm, gate Gate, land func(i int, score int64)) (Stats, error) {
	if len(items) == 0 {
		return Stats{}, nil
	}
	r := &batchReq{ids: make([]int64, len(items))}
	for i, it := range items {
		r.ids[i] = it.ID
	}
	if gate != nil {
		r.skip = func(j int) bool { return gate.Skip(j, items[j].B) }
	}
	r.eval = func(_, j int, chi *CHI, m *Mask) {
		var stop func(Bounds) bool
		if gate != nil {
			stop = func(bs Bounds) bool { return gate.Skip(j, bs) }
		}
		if bs := term.plan.refine(chi, m, items[j].ID, stop); bs.Lo == bs.Hi {
			land(j, bs.Lo)
		}
	}
	err := b.park(r)
	return r.st, err
}
