package dist

import (
	"context"
	"fmt"
	"net"
	"sync"

	"masksearch/internal/core"
)

// This file holds the coordinator's query operations: stages, the
// core.Stages whose filter, bounds and verification run on the shard
// nodes, over which core's drivers run unchanged. The drivers' pruning
// and skipping are sound (a dropped candidate provably cannot place),
// so no matter which node verified which candidate, which τ updates
// landed in time, or whether a hedged or failover attempt answered, the
// surviving exact scores and the final sorted ranking are identical to
// single-node execution. Stats are merged from node responses; like the
// local worker pool, the verification stage's load counts may differ
// run to run (τ races), never the results.

// gather accumulates streamed verification results across every node
// and attempt of one verify scatter. It is the driver gate's ledger:
// each candidate's exact score is recorded AT MOST ONCE — hedged and
// failover attempts can both stream the same candidate, and a
// duplicate landing would count one candidate (or group member) twice
// and tighten τ beyond what the landed scores justify (an unsound
// skip). The first landing wins; duplicates are dropped under the lock.
type gather struct {
	gate   core.Gate
	onLand func(i int, score int64) // nil once the scatter returned

	mu     sync.Mutex
	landed []bool
	st     core.Stats
	subs   map[chan struct{}]bool
}

func newGather(n int, gate core.Gate, onLand func(i int, score int64)) *gather {
	return &gather{gate: gate, onLand: onLand, landed: make([]bool, n), subs: make(map[chan struct{}]bool)}
}

// land hands one candidate's exact score to the driver (which advances
// τ) and wakes the per-connection τ pushers. Duplicate landings are
// dropped.
func (g *gather) land(i int, score int64) {
	g.mu.Lock()
	if g.landed[i] || g.onLand == nil {
		g.mu.Unlock()
		return
	}
	g.landed[i] = true
	g.onLand(i, score)
	for ch := range g.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	g.mu.Unlock()
}

// merge folds a winning attempt's response stats in.
func (g *gather) merge(st core.Stats) {
	g.mu.Lock()
	g.st.Merge(st)
	g.mu.Unlock()
}

// subscribe registers a τ-change wakeup channel for one verify
// connection's pusher.
func (g *gather) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	g.mu.Lock()
	g.subs[ch] = true
	g.mu.Unlock()
	return ch
}

func (g *gather) unsubscribe(ch chan struct{}) {
	g.mu.Lock()
	delete(g.subs, ch)
	g.mu.Unlock()
}

// stages is the core.Stages of one query on the cluster.
type stages struct {
	c    *Coordinator
	part *Partial
}

// Bounds runs the remote bounds stage over targets, returning
// per-target candidate bounds and coverage flags (false = the target's
// shard went missing under the degraded policy).
func (s stages) Bounds(ctx context.Context, targets []int64, term *core.ScoreTerm) ([]core.CandBound, []bool, core.Stats, error) {
	var st core.Stats
	wterm, err := toWireTerm(term.CPTerm)
	if err != nil {
		return nil, nil, st, err
	}
	c := s.c
	byShard, srcIdx := c.partition(targets)
	cands := make([]core.CandBound, len(targets))
	covered := make([]bool, len(targets))
	var mu sync.Mutex
	errs := make([]error, c.nshards)
	var wg sync.WaitGroup
	for s := range byShard {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ids, src := byShard[s], srcIdx[s]
			errs[s] = c.runAttempts(ctx, kindBounds, s, func(actx context.Context, node NodeSpec, boot string) (func(), error) {
				var res boundsRes
				req := boundsReq{BootID: boot, IDs: ids, Term: wterm, DeadlineMS: deadlineMS(actx)}
				if err := c.roundTrip(actx, kindBounds, node, ftBounds, &req, ftBoundsRes, &res); err != nil {
					return nil, err
				}
				if len(res.Cands) != len(ids) {
					return nil, fmt.Errorf("dist: node %s answered %d bounds for %d ids", node.Name, len(res.Cands), len(ids))
				}
				for j, cb := range res.Cands {
					if cb.ID != ids[j] {
						return nil, fmt.Errorf("dist: node %s answered bounds for mask %d where mask %d was asked", node.Name, cb.ID, ids[j])
					}
				}
				return func() {
					mu.Lock()
					st.Merge(res.Stats)
					for j, cb := range res.Cands {
						cands[src[j]] = cb
						covered[src[j]] = true
					}
					mu.Unlock()
					c.foldReads(res.Node)
				}, nil
			})
		}(s)
	}
	wg.Wait()
	if err := resolve(errs, s.part); err != nil {
		return nil, nil, st, err
	}
	return cands, covered, st, nil
}

// Filter runs the remote filter stage, one request per shard: every
// shard's keep-flags are computed on its node and reassemble in target
// order, with coverage flags as in Bounds.
func (s stages) Filter(ctx context.Context, targets []int64, terms []core.CPTerm, pred core.Pred) ([]bool, []bool, core.Stats, error) {
	var st core.Stats
	wterms, err := toWireTerms(terms)
	if err != nil {
		return nil, nil, st, err
	}
	wpred, err := toWirePred(pred)
	if err != nil {
		return nil, nil, st, err
	}
	c := s.c
	byShard, srcIdx := c.partition(targets)
	keep := make([]bool, len(targets))
	covered := make([]bool, len(targets))
	var mu sync.Mutex
	errs := make([]error, c.nshards)
	var wg sync.WaitGroup
	for sh := range byShard {
		if len(byShard[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			ids, src := byShard[sh], srcIdx[sh]
			errs[sh] = c.runAttempts(ctx, kindFilter, sh, func(actx context.Context, node NodeSpec, boot string) (func(), error) {
				var res filterRes
				req := filterReq{BootID: boot, IDs: ids, Terms: wterms, Pred: wpred, DeadlineMS: deadlineMS(actx)}
				if err := c.roundTrip(actx, kindFilter, node, ftFilter, &req, ftFilterRes, &res); err != nil {
					return nil, err
				}
				if len(res.Keep) != len(ids) {
					return nil, fmt.Errorf("dist: node %s answered %d filter decisions for %d ids", node.Name, len(res.Keep), len(ids))
				}
				return func() {
					mu.Lock()
					st.Merge(res.Stats)
					for j, k := range res.Keep {
						keep[src[j]] = k
						covered[src[j]] = true
					}
					mu.Unlock()
					c.foldReads(res.Node)
				}, nil
			})
		}(sh)
	}
	wg.Wait()
	if err := resolve(errs, s.part); err != nil {
		return nil, nil, st, err
	}
	return keep, covered, st, nil
}

// Verify ships verification items to their shards, streaming exact
// scores through a gather (deduplicated per item) to land as they
// arrive. Each request ships the driver's gate over the shard's items,
// which the node verifies under, and each connection receives the
// gate's τ, with its holder, as later landings tighten it.
func (s stages) Verify(ctx context.Context, items []core.VerifyItem, term *core.ScoreTerm, gate core.Gate, land func(i int, score int64)) (core.Stats, error) {
	wterm, err := toWireTerm(term.CPTerm)
	if err != nil {
		return core.Stats{}, err
	}
	// Each shard takes its items in the driver's order, best-first: it
	// verifies its strongest candidates before its long tail, so the
	// first landed chunks push τ near its final value while the tail
	// is still unloaded — that is where the exchange's skips come from.
	// The order is the driver's sort, so the byte stream is
	// deterministic, and it never changes the answer: scores land by
	// item index.
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	g := newGather(len(items), gate, land)
	c := s.c
	byShard, srcIdx := c.partition(ids)
	errs := make([]error, c.nshards)
	var wg sync.WaitGroup
	for s := range byShard {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := srcIdx[s]
			shardItems := make([]core.VerifyItem, len(src))
			for j, i := range src {
				shardItems[j] = items[i]
			}
			errs[s] = c.runAttempts(ctx, kindVerify, s, func(actx context.Context, node NodeSpec, boot string) (func(), error) {
				return c.verifyAttempt(actx, node, boot, shardItems, src, wterm, g)
			})
		}(s)
	}
	wg.Wait()
	// A losing hedged attempt may still be streaming; the driver reads
	// its candidates once Verify returns, so nothing lands after this.
	g.mu.Lock()
	g.onLand = nil
	g.mu.Unlock()
	return g.st, resolve(errs, s.part)
}

// verifyAttempt is one node's streaming verify exchange: write the
// request (the gate as it stands now), push τ as it tightens, land
// score chunks as they arrive, finish on the terminal frame. Scores
// land immediately (not in the commit) because the gate needs them
// mid-flight; the gather's per-candidate dedup keeps concurrent hedged
// attempts sound. The commit only folds the response stats, so a
// losing attempt never double-counts them.
func (c *Coordinator) verifyAttempt(ctx context.Context, node NodeSpec, boot string, items []core.VerifyItem, l2g []int, wterm wireTerm, g *gather) (func(), error) {
	// Subscribed before the gate ships, no tightening goes unpushed.
	sub := g.subscribe()
	defer g.unsubscribe(sub)
	var res verifyRes
	err := c.exchange(ctx, node, func(conn net.Conn) (answered bool, err error) {
		req := verifyReq{BootID: boot, Items: items, Term: wterm, Gate: g.gate.Ship(l2g), DeadlineMS: deadlineMS(ctx)}
		sz, err := writeMsg(conn, ftVerify, &req)
		c.bytesSent.Add(int64(sz))
		if err != nil {
			return false, err
		}
		stopPush := c.pushTau(conn, sub, g)
		defer func() {
			if err != nil {
				conn.Close() // fails a push blocked in its write
			}
			stopPush()
		}()
		for {
			typ, payload, n, err := ReadFrame(conn, 0)
			c.bytesRecv.Add(int64(n))
			answered = answered || n > 0
			if err != nil {
				return answered, err
			}
			switch typ {
			case ftScores:
				var chunk scoreChunk
				if err := decodeMsg(payload, &chunk); err != nil {
					return true, fmt.Errorf("dist: decode score chunk: %w", err)
				}
				for _, sc := range chunk {
					if sc.Idx < 0 || sc.Idx >= len(l2g) {
						return true, fmt.Errorf("dist: node %s streamed a score for item %d of %d", node.Name, sc.Idx, len(l2g))
					}
					g.land(l2g[sc.Idx], sc.Score)
				}
			case ftVerifyRes:
				if err := decodeMsg(payload, &res); err != nil {
					return true, fmt.Errorf("dist: decode verify result: %w", err)
				}
				return true, nil
			case ftError:
				return true, remoteErr(payload)
			default:
				return true, fmt.Errorf("dist: unexpected frame type 0x%02x in verify stream", typ)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return func() {
		g.merge(res.Stats)
		c.foldReads(res.Node)
	}, nil
}

// pushTau starts the τ pusher: the sole writer on conn after the verify
// request, woken by every landing in the cluster. A push failure stops
// pushing but not the attempt: the node then skips by its own τ. The
// returned stop waits for the pusher to exit, so no write is
// outstanding once it returns.
func (c *Coordinator) pushTau(conn net.Conn, sub <-chan struct{}, g *gather) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		var sent *core.Scored
		for {
			select {
			case <-quit:
				return
			case <-sub:
			}
			tau := g.gate.Held()
			if tau == nil || sent != nil && *tau == *sent {
				continue
			}
			n, werr := writeMsg(conn, ftTau, (*tauPush)(tau))
			c.bytesSent.Add(int64(n))
			if werr != nil {
				return
			}
			c.nTauSent.Add(1)
			sent = tau
		}
	}()
	return func() { close(quit); <-exited }
}

// Stages returns the core.Stages that run one query's filter, bounds
// and verification on the cluster; part selects the partial-result
// policy (nil fails closed).
func (c *Coordinator) Stages(part *Partial) core.Stages { return stages{c, part} }
