package dist

import (
	"context"
	"fmt"
	"net"
	"sync"

	"masksearch/internal/core"
)

// This file holds the coordinator's query operations: stages, the
// core.Stages whose filter, bounds, verification and top-k ranking run
// on the shard nodes, over which core's drivers run unchanged. The
// drivers' pruning and skipping are sound (a dropped candidate provably
// cannot place), so no matter which node verified which candidate,
// which τ updates landed in time, or whether a hedged or failover
// attempt answered, the surviving exact scores and the final sorted
// ranking are identical to single-node execution. Stats are merged
// from node responses; like the local worker pool, the verification
// stage's load counts may differ run to run (τ races), never the
// results.

// gather accumulates the exact scores streamed back across every node
// and attempt of one verify or rank scatter. It is the driver's ledger:
// each item's (or target's) score is recorded AT MOST ONCE — hedged and
// failover attempts can both stream the same one, and a duplicate
// landing would count one candidate (or group member) twice and tighten
// τ beyond what the landed scores justify (an unsound skip). The first
// landing wins; duplicates are dropped under the lock.
type gather struct {
	tau    interface{ Held() *core.Scored } // the τ pushed to the nodes
	onLand func(i int, score int64)         // nil once the scatter returned

	mu     sync.Mutex
	landed []bool
	st     core.Stats
	subs   map[chan struct{}]bool
}

func newGather(n int, tau interface{ Held() *core.Scored }, onLand func(i int, score int64)) *gather {
	return &gather{tau: tau, onLand: onLand, landed: make([]bool, n), subs: make(map[chan struct{}]bool)}
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

// landedIn reports whether a score of part p has landed.
func (g *gather) landedIn(p shardPart) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for j := range p.ids {
		if g.landed[p.at(j)] {
			return true
		}
	}
	return false
}

// close ends the landings: a hedged loser may stream on after a scatter.
func (g *gather) close() {
	g.mu.Lock()
	g.onLand = nil
	g.mu.Unlock()
}

// merge folds a winning attempt's response stats in.
func (g *gather) merge(st core.Stats) {
	g.mu.Lock()
	g.st.Merge(st)
	g.mu.Unlock()
}

// subscribe registers a τ-change wakeup channel for one streaming
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

// scatter runs one request per shard with ids, concurrently, through
// runAttempts, and applies the partial-result policy to the outcomes.
// A streaming scatter passes its gather g: a shard that failed after
// some of its scores landed fails the query under any policy, since
// they stay landed and their τ may have let other shards skip.
func (s stages) scatter(ctx context.Context, parts []shardPart, kind int, g *gather, run func(p shardPart) attempt) error {
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for sh, p := range parts {
		if len(p.ids) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[sh] = s.c.runAttempts(ctx, kind, sh, run(p))
		}()
	}
	wg.Wait()
	for sh, p := range parts {
		if errs[sh] != nil && g != nil && g.landedIn(p) {
			return errs[sh]
		}
	}
	return resolve(errs, s.part)
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
	cands := make([]core.CandBound, len(targets))
	covered := make([]bool, len(targets))
	var mu sync.Mutex
	err = s.scatter(ctx, c.partition(targets), kindBounds, nil, func(p shardPart) attempt {
		return func(actx context.Context, node NodeSpec, boot string) (func(), error) {
			var res boundsRes
			req := boundsReq{BootID: boot, IDs: p.ids, Term: wterm, DeadlineMS: deadlineMS(actx)}
			if err := c.roundTrip(actx, kindBounds, node, ftBounds, &req, ftBoundsRes, &res); err != nil {
				return nil, err
			}
			if len(res.Cands) != len(p.ids) {
				return nil, fmt.Errorf("dist: node %s answered %d bounds for %d ids", node.Name, len(res.Cands), len(p.ids))
			}
			for j, cb := range res.Cands {
				if cb.ID != p.ids[j] {
					return nil, fmt.Errorf("dist: node %s answered bounds for mask %d where mask %d was asked", node.Name, cb.ID, p.ids[j])
				}
			}
			return func() {
				mu.Lock()
				st.Merge(res.Stats)
				for j, cb := range res.Cands {
					cands[p.at(j)] = cb
					covered[p.at(j)] = true
				}
				mu.Unlock()
				c.foldReads(res.Node)
			}, nil
		}
	})
	if err != nil {
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
	keep := make([]bool, len(targets))
	covered := make([]bool, len(targets))
	var mu sync.Mutex
	err = s.scatter(ctx, c.partition(targets), kindFilter, nil, func(p shardPart) attempt {
		return func(actx context.Context, node NodeSpec, boot string) (func(), error) {
			var res filterRes
			req := filterReq{BootID: boot, IDs: p.ids, Terms: wterms, Pred: wpred, DeadlineMS: deadlineMS(actx)}
			if err := c.roundTrip(actx, kindFilter, node, ftFilter, &req, ftFilterRes, &res); err != nil {
				return nil, err
			}
			if len(res.Keep) != len(p.ids) {
				return nil, fmt.Errorf("dist: node %s answered %d filter decisions for %d ids", node.Name, len(res.Keep), len(p.ids))
			}
			return func() {
				mu.Lock()
				st.Merge(res.Stats)
				for j, k := range res.Keep {
					keep[p.at(j)] = k
					covered[p.at(j)] = true
				}
				mu.Unlock()
				c.foldReads(res.Node)
			}, nil
		}
	})
	if err != nil {
		return nil, nil, st, err
	}
	return keep, covered, st, nil
}

// shipGate is a gate the nodes verify under: Ship describes it for the
// items sub of a Verify call, which a node rebuilds (core.RebuildGate),
// and Held is the τ pushed to the nodes as it tightens. Aggregation's
// gate is one; a top-k ranks on the nodes through Rank instead.
type shipGate interface {
	Ship(sub []int) core.GateSpec
	Held() *core.Scored
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
	ship, ok := gate.(shipGate)
	if !ok {
		return core.Stats{}, fmt.Errorf("dist: a %T gate does not ship: %w", gate, errNotDistributable)
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
	g := newGather(len(items), ship, land)
	err = s.scatter(ctx, s.c.partition(ids), kindVerify, g, func(p shardPart) attempt {
		sub, shardItems := make([]int, len(p.ids)), make([]core.VerifyItem, len(p.ids))
		for j := range sub {
			sub[j] = p.at(j)
			shardItems[j] = items[sub[j]]
		}
		return s.c.streamAttempt(ftVerifyRes, p, g, func(actx context.Context, boot string) (byte, wireMsg) {
			return ftVerify, &verifyReq{BootID: boot, Items: shardItems, Term: wterm, Gate: ship.Ship(sub), DeadlineMS: deadlineMS(actx)}
		})
	})
	g.close()
	return g.st, err
}

// Rank runs a top-k's per-shard routine on every shard's node, one
// streaming exchange per shard: the node bounds, prunes and verifies
// its own targets under its own τ, and streams back every exact score
// that may place. The scores land in tt through a gather (deduplicated
// per target), whose τ is pushed to every node as it tightens.
func (s stages) Rank(ctx context.Context, targets []int64, term *core.ScoreTerm, tt *core.TauTracker) (core.Stats, error) {
	wterm, err := toWireTerm(term.CPTerm)
	if err != nil {
		return core.Stats{}, err
	}
	k, ord := tt.Query()
	g := newGather(len(targets), tt, func(i int, score int64) { tt.Add(targets[i], score) })
	err = s.scatter(ctx, s.c.partition(targets), kindVerify, g, func(p shardPart) attempt {
		return s.c.streamAttempt(ftRankRes, p, g, func(actx context.Context, boot string) (byte, wireMsg) {
			return ftRank, &rankReq{BootID: boot, IDs: p.ids, Term: wterm, K: k, Ord: ord, DeadlineMS: deadlineMS(actx)}
		})
	})
	g.close()
	return g.st, err
}

// streamAttempt is shard part p's streaming exchange, verify or rank:
// write the request req builds (a verify request ships its gate as it
// stands now), push τ as it tightens, land score chunks, indexed by
// position in p.ids, as they arrive, and finish on the terminal frame
// resType. Scores land immediately (not in the commit) because the gate
// needs them mid-flight; the gather's per-item dedup keeps concurrent
// hedged attempts sound. The commit only folds the response stats, so
// a losing attempt never double-counts them.
func (c *Coordinator) streamAttempt(resType byte, p shardPart, g *gather, req func(ctx context.Context, boot string) (byte, wireMsg)) attempt {
	return func(ctx context.Context, node NodeSpec, boot string) (func(), error) {
		// Subscribed before the request is built, no tightening goes
		// unpushed.
		sub := g.subscribe()
		defer g.unsubscribe(sub)
		var res verifyRes
		err := c.exchange(ctx, node, func(conn net.Conn) (answered bool, err error) {
			typ, m := req(ctx, boot)
			sz, err := writeMsg(conn, typ, m)
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
						if sc.Idx < 0 || sc.Idx >= len(p.ids) {
							return true, fmt.Errorf("dist: node %s streamed a score for item %d of %d", node.Name, sc.Idx, len(p.ids))
						}
						g.land(p.at(sc.Idx), sc.Score)
					}
				case resType:
					if err := decodeMsg(payload, &res); err != nil {
						return true, fmt.Errorf("dist: decode stream result: %w", err)
					}
					return true, nil
				case ftError:
					return true, remoteErr(payload)
				default:
					return true, fmt.Errorf("dist: unexpected frame type 0x%02x in a score stream", typ)
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
}

// pushTau starts the τ pusher: the sole writer on conn after the
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
			tau := g.tau.Held()
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

// Stages returns the core.Stages that run one query's filter, bounds,
// verification and top-k ranking on the cluster; part selects the
// partial-result policy (nil fails closed).
func (c *Coordinator) Stages(part *Partial) core.Stages { return stages{c, part} }
