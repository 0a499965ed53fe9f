package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"masksearch/internal/metrics"
	"masksearch/internal/store"
)

// ErrShardUnavailable is returned (wrapped) when a shard's every route
// — primary, replicas, retries — failed and the query did not opt into
// degraded results. The serving layer maps it to 503.
var ErrShardUnavailable = errors.New("dist: shard unavailable")

// Request kinds, indexing the per-kind latency windows that drive
// adaptive hedging. kindVerify is both streaming exchanges, verify and
// rank, and its window stays empty: see hedgeDelay.
const (
	kindHello = iota
	kindFilter
	kindBounds
	kindVerify
	numKinds
)

// Defaults for CoordOptions zero values.
const (
	defaultDialTimeout = 2 * time.Second
	defaultHedgeFloor  = 2 * time.Millisecond
	defaultHedgeCold   = 25 * time.Millisecond
	hedgeQuantile      = 0.95
	latWindow          = 128
	latWarmup          = 8
)

// CoordOptions tunes the coordinator. The zero value hedges (see
// HedgeAfter) and retries one pass.
type CoordOptions struct {
	// HedgeAfter is the delay before a request is hedged to the next
	// replica: 0 adapts filter and bounds requests to their observed
	// latency (the hedgeQuantile of recent requests, floored at
	// defaultHedgeFloor) and hedges verify requests at
	// defaultHedgeCold; a positive duration is used as-is for every
	// kind, and a negative duration disables hedging.
	HedgeAfter time.Duration
	// Retries is how many extra full passes over a shard's route are
	// attempted after every node failed once. 0 means one retry pass;
	// negative disables retries.
	Retries int
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
}

func (o CoordOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return defaultDialTimeout
}

func (o CoordOptions) passes() int {
	if o.Retries < 0 {
		return 1
	}
	if o.Retries == 0 {
		return 2
	}
	return 1 + o.Retries
}

// Expect pins the dataset the coordinator believes it is querying;
// every node must report the same dataset in its hello before serving
// work, so a node pointed at stale or foreign data fails loudly
// instead of answering wrong.
type Expect struct {
	NumMasks     int
	MaskW, MaskH int
	Shards       int
	Codec        string
	GenVersion   int
}

// CoordStats snapshots the coordinator's counters since creation.
type CoordStats struct {
	// Requests counts shard-level requests issued (every attempt,
	// including hedges and retries).
	Requests int64
	// Hedges counts attempts launched by the hedging timer; HedgeWins
	// counts the subset that answered first.
	Hedges, HedgeWins int64
	// Retries counts error-driven relaunches; Failovers counts the
	// subset that moved to a different node.
	Retries, Failovers int64
	// TauSent counts τ updates pushed to in-flight verifications.
	TauSent int64
	// Degraded counts queries that returned with at least one shard
	// missing (the opt-in partial-result path).
	Degraded int64
	// BytesSent and BytesRecv count protocol bytes moved.
	BytesSent, BytesRecv int64
	// Dials counts connections opened; kept connections carry the
	// other requests.
	Dials int64
}

// nodeSeen is the per-node cumulative read-stats baseline.
type nodeSeen struct {
	bootID string
	reads  []store.ReadStats
}

// Coordinator scatter-gathers query stages across the topology's
// nodes. It keeps every connection whose exchange ended cleanly, each
// carrying one exchange at a time, and reuses the most recently used
// first: a node's idle connections number at most the peak of its
// concurrent exchanges, which the caller's admission bounds (msserve's
// MaxInflight), and a node closes a connection left idle past its
// request deadline. Its other cross-request state is counters, latency
// windows and the remote read-stats accumulator.
type Coordinator struct {
	routes  [][]NodeSpec
	nshards int
	shardOf func(int64) int
	expect  Expect
	opts    CoordOptions

	lat [numKinds]*metrics.Window

	vmu       sync.Mutex
	validated map[string]string // node name → the boot its hello validated

	smu      sync.Mutex
	lastSeen map[string]*nodeSeen
	remote   []store.ReadStats

	pmu    sync.Mutex
	idle   map[string][]net.Conn // node name → idle connections, most recent last
	closed bool

	nRequests  atomic.Int64
	nHedges    atomic.Int64
	nHedgeWins atomic.Int64
	nRetries   atomic.Int64
	nFailovers atomic.Int64
	nTauSent   atomic.Int64
	nDegraded  atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	nDials     atomic.Int64
}

// NewCoordinator resolves the topology against the dataset's shard
// count and wires the routing function (shardOf maps a mask id to its
// storage shard; the facade passes the store's own mapping).
func NewCoordinator(topo *Topology, expect Expect, shardOf func(int64) int, opts CoordOptions) (*Coordinator, error) {
	if expect.Shards <= 0 {
		return nil, fmt.Errorf("dist: coordinator needs a positive shard count, got %d", expect.Shards)
	}
	routes, err := topo.Routes(expect.Shards)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		routes:    routes,
		nshards:   expect.Shards,
		shardOf:   shardOf,
		expect:    expect,
		opts:      opts,
		lat:       latWindows(),
		validated: make(map[string]string),
		lastSeen:  make(map[string]*nodeSeen),
		remote:    make([]store.ReadStats, expect.Shards),
		idle:      make(map[string][]net.Conn),
	}, nil
}

// latWindows returns one latency window per request kind.
func latWindows() (w [numKinds]*metrics.Window) {
	for k := range w {
		w[k] = metrics.NewWindow(latWindow, latWarmup)
	}
	return w
}

// Close closes the idle connections. A connection whose exchange ends
// after Close is closed, not kept.
func (c *Coordinator) Close() error {
	c.pmu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.pmu.Unlock()
	for _, conns := range idle {
		for _, conn := range conns {
			conn.Close()
		}
	}
	return nil
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		Requests: c.nRequests.Load(),
		Hedges:   c.nHedges.Load(), HedgeWins: c.nHedgeWins.Load(),
		Retries: c.nRetries.Load(), Failovers: c.nFailovers.Load(),
		TauSent:   c.nTauSent.Load(),
		Degraded:  c.nDegraded.Load(),
		BytesSent: c.bytesSent.Load(), BytesRecv: c.bytesRecv.Load(),
		Dials: c.nDials.Load(),
	}
}

// RemoteShardStats reports the per-shard read counters accumulated
// from node responses: each response carries the node's cumulative
// counters, and the coordinator folds the non-negative deltas since
// that node's previous response (resetting the baseline when the
// node's BootID changes). The facade sums these into DB.Stats exactly
// like local per-shard stats.
func (c *Coordinator) RemoteShardStats() []store.ReadStats {
	c.smu.Lock()
	defer c.smu.Unlock()
	return slices.Clone(c.remote)
}

// foldReads folds one response's cumulative per-shard counters into
// the remote accumulator.
func (c *Coordinator) foldReads(info nodeInfo) {
	c.smu.Lock()
	defer c.smu.Unlock()
	prev := c.lastSeen[info.Node]
	if prev == nil || prev.bootID != info.BootID {
		prev = &nodeSeen{bootID: info.BootID}
		c.lastSeen[info.Node] = prev
	}
	for len(prev.reads) < len(info.Reads) {
		prev.reads = append(prev.reads, store.ReadStats{})
	}
	for s := range info.Reads {
		if s >= len(c.remote) {
			break // node reports more shards than the coordinator's dataset; drop the excess
		}
		d := clampReads(info.Reads[s].Sub(prev.reads[s]))
		c.remote[s].Add(d)
		// Advance the baseline by the clamped delta (a per-field max)
		// rather than overwriting it: responses from one node can land
		// out of order, and a stale snapshot must not drag the baseline
		// backwards and re-count work the next fresh snapshot repeats.
		prev.reads[s].Add(d)
	}
}

// clampReads floors every delta field at zero. A node's counters only
// grow, but its responses can land out of order: a stale snapshot
// differenced against a fresher baseline would otherwise subtract from
// the accumulator.
func clampReads(d store.ReadStats) store.ReadStats {
	for _, f := range []*int64{&d.MasksLoaded, &d.RegionReads, &d.BytesRead, &d.CacheHits, &d.CacheMisses, &d.CacheEvicted, &d.TailLoads} {
		if *f < 0 {
			*f = 0
		}
	}
	return d
}

// Partial is the degraded-results collector a query passes to opt into
// partial answers: shards whose every route failed are recorded here
// and their candidates dropped, instead of failing the query. A nil
// *Partial is the default fail-closed policy.
type Partial struct {
	c       *Coordinator
	mu      sync.Mutex
	missing map[int]bool
}

// NewPartial returns a fresh collector for one query execution.
func (c *Coordinator) NewPartial() *Partial {
	return &Partial{c: c, missing: make(map[int]bool)}
}

func (p *Partial) add(shard int) {
	p.mu.Lock()
	first := len(p.missing) == 0
	p.missing[shard] = true
	p.mu.Unlock()
	if first {
		p.c.nDegraded.Add(1)
	}
}

// Degraded reports whether any shard went missing.
func (p *Partial) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.missing) > 0
}

// Missing lists the missing shards in ascending order.
func (p *Partial) Missing() []int {
	p.mu.Lock()
	out := make([]int, 0, len(p.missing))
	for s := range p.missing {
		out = append(out, s)
	}
	p.mu.Unlock()
	sort.Ints(out)
	return out
}

// resolve applies the fail-closed/degraded policy to the per-shard
// outcomes of one scatter. Context cancellation is never degraded
// away: a canceled query must fail, not silently answer with whatever
// subset happened to land.
func resolve(errs []error, part *Partial) error {
	for s, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if part == nil {
			return err
		}
		part.add(s)
	}
	return nil
}

// hedgeDelay resolves the hedging delay for one request kind; ok is
// false when hedging is disabled. Adaptive delays come from the round
// trips roundTrip times. A verify or rank request streams for as long
// as its verification runs, so no round trip describes it: it hedges at
// defaultHedgeCold, and no workload has shown a tighter delay to pay.
func (c *Coordinator) hedgeDelay(kind int) (time.Duration, bool) {
	switch {
	case c.opts.HedgeAfter < 0:
		return 0, false
	case c.opts.HedgeAfter > 0:
		return c.opts.HedgeAfter, true
	case kind == kindVerify:
		return defaultHedgeCold, true
	}
	if q, ok := c.lat[kind].Quantiles(hedgeQuantile); ok {
		return max(q[0], defaultHedgeFloor), true
	}
	return defaultHedgeCold, true
}

// deadlineMS translates a context deadline into the request's relative
// node-side budget (0 = unbounded).
func deadlineMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return max(time.Until(dl).Milliseconds(), 1)
}

// take pops node's most recently kept connection, or dials one when
// none is idle or fresh is set; pooled reports which. It arms the
// connection's deadline from ctx, clearing a kept connection's last one.
func (c *Coordinator) take(ctx context.Context, node NodeSpec, fresh bool) (conn net.Conn, pooled bool, err error) {
	if !fresh {
		c.pmu.Lock()
		if s := c.idle[node.Name]; len(s) > 0 {
			conn, c.idle[node.Name] = s[len(s)-1], s[:len(s)-1]
		}
		c.pmu.Unlock()
	}
	if pooled = conn != nil; !pooled {
		d := net.Dialer{Timeout: c.opts.dialTimeout()}
		if conn, err = d.DialContext(ctx, "tcp", node.Addr); err != nil {
			return nil, false, fmt.Errorf("dist: dial node %s (%s): %w", node.Name, node.Addr, err)
		}
		c.nDials.Add(1)
	}
	var dl time.Time
	if d, ok := ctx.Deadline(); ok {
		dl = d.Add(connGraceSlack)
	}
	conn.SetDeadline(dl)
	return conn, pooled, nil
}

// put keeps a connection whose exchange ended cleanly, or closes it
// after Close.
func (c *Coordinator) put(node NodeSpec, conn net.Conn) {
	c.pmu.Lock()
	if !c.closed {
		c.idle[node.Name] = append(c.idle[node.Name], conn)
		conn = nil
	}
	c.pmu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// exchange runs one request to node over a kept connection, or a new
// one. do writes the request and reads to the terminal frame, reporting
// whether any response byte arrived. A clean exchange with ctx not
// done is ended with ftEnd and its connection kept. Otherwise the
// connection is closed: ctx ending closes it at once, so a hedged
// loser's or a canceled attempt's blocking read aborts. A kept
// connection that fails before any response byte arrived went stale
// while idle (the node restarted, or closed it at its idle deadline); a
// corrupt or torn response is an answer, and goes to the attempt runner.
// Every request is an idempotent read, so that failure redials once, at
// once, and the attempt runner never sees it.
func (c *Coordinator) exchange(ctx context.Context, node NodeSpec, do func(conn net.Conn) (answered bool, err error)) error {
	for fresh := false; ; fresh = true {
		conn, pooled, err := c.take(ctx, node, fresh)
		if err != nil {
			return err
		}
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		answered, err := do(conn)
		if stop() && err == nil {
			n, werr := WriteFrame(conn, ftEnd, nil)
			c.bytesSent.Add(int64(n))
			if werr == nil {
				c.put(node, conn)
				return nil
			}
		}
		conn.Close()
		if err == nil || !pooled || answered || ctx.Err() != nil {
			return err
		}
	}
}

// ensureNode validates a node's hello against the expected dataset
// once per node boot, returning the validated boot id; a mismatched
// node is treated as failed so the attempt runner moves on to a
// replica.
func (c *Coordinator) ensureNode(ctx context.Context, node NodeSpec) (string, error) {
	c.vmu.Lock()
	boot, ok := c.validated[node.Name]
	c.vmu.Unlock()
	if ok {
		return boot, nil
	}
	// A hello is a tiny exchange; bound it independently of the query
	// deadline so an unresponsive endpoint cannot hang a deadline-less
	// query at validation time.
	hctx, cancel := context.WithTimeout(ctx, 2*c.opts.dialTimeout())
	defer cancel()
	var res HelloRes
	if err := c.roundTrip(hctx, kindHello, node, ftHello, &helloReq{}, ftHelloRes, &res); err != nil {
		return "", err
	}
	if err := c.checkExpect(node, res); err != nil {
		return "", err
	}
	c.vmu.Lock()
	c.validated[node.Name] = res.BootID
	c.vmu.Unlock()
	return res.BootID, nil
}

// forgetBoot drops a node's validation when a work attempt validated
// against boot failed with an error from another boot: the node
// restarted, maybe over another dataset, and its next attempt must
// hello again.
func (c *Coordinator) forgetBoot(node NodeSpec, boot string, err error) {
	var re *errRemote
	if !errors.As(err, &re) || re.bootID == boot {
		return
	}
	c.vmu.Lock()
	if c.validated[node.Name] == boot {
		delete(c.validated, node.Name)
	}
	c.vmu.Unlock()
}

func (c *Coordinator) checkExpect(node NodeSpec, res HelloRes) error {
	e := c.expect
	if res.Wire != WireVersion {
		return fmt.Errorf("dist: node %s speaks wire version %d, this coordinator wire version %d", node.Name, res.Wire, WireVersion)
	}
	if res.NumMasks != e.NumMasks || res.MaskW != e.MaskW || res.MaskH != e.MaskH ||
		res.Shards != e.Shards || res.Codec != e.Codec || res.GenVersion != e.GenVersion {
		return fmt.Errorf("dist: node %s opened a different dataset (node: %d masks %dx%d, %d shard(s), codec %q, gen %d; coordinator: %d masks %dx%d, %d shard(s), codec %q, gen %d)",
			node.Name, res.NumMasks, res.MaskW, res.MaskH, res.Shards, res.Codec, res.GenVersion,
			e.NumMasks, e.MaskW, e.MaskH, e.Shards, e.Codec, e.GenVersion)
	}
	return nil
}

// roundTrip issues one request/response exchange with a node.
func (c *Coordinator) roundTrip(ctx context.Context, kind int, node NodeSpec, reqType byte, req wireMsg, resType byte, res wireMsg) error {
	start := time.Now()
	err := c.exchange(ctx, node, func(conn net.Conn) (bool, error) {
		sz, err := writeMsg(conn, reqType, req)
		c.bytesSent.Add(int64(sz))
		if err != nil {
			return false, err
		}
		sz, err = readMsg(conn, resType, 0, res)
		c.bytesRecv.Add(int64(sz))
		return sz > 0, err
	})
	if err != nil {
		return err
	}
	c.lat[kind].Observe(time.Since(start))
	return nil
}

// attempt is one node-request closure for runAttempts: it performs the
// exchange against the given node, sending the node boot its hello
// validated, and returns a commit closure that publishes the response
// into the gather state. runAttempts invokes exactly one successful
// attempt's commit, so hedged duplicates never double-apply a response.
// (Verify attempts additionally stream scores as they arrive — that
// path deduplicates per candidate instead.)
type attempt func(ctx context.Context, node NodeSpec, boot string) (commit func(), err error)

// attemptResult carries one finished attempt back to the runner.
type attemptResult struct {
	idx    int
	hedged bool
	commit func()
	err    error
}

// runAttempts drives one shard request to completion across the
// shard's route: primary first, hedged to the next node when the
// latency budget expires, failed over on error, with extra retry
// passes after the whole route failed. The first success wins (its
// commit is applied and every other in-flight attempt is canceled);
// when every attempt fails the error wraps ErrShardUnavailable.
func (c *Coordinator) runAttempts(ctx context.Context, kind, shard int, run attempt) error {
	route := c.routes[shard]
	cands := make([]NodeSpec, 0, len(route)*c.opts.passes())
	for p := 0; p < c.opts.passes(); p++ {
		cands = append(cands, route...)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, len(cands))
	next, inflight := 0, 0
	launched := make(map[string]bool, len(route))
	launch := func(hedged bool) {
		idx := next
		node := cands[idx]
		next++
		inflight++
		launched[node.Name] = true
		c.nRequests.Add(1)
		go func() {
			boot, err := c.ensureNode(actx, node)
			if err != nil {
				results <- attemptResult{idx: idx, hedged: hedged, err: err}
				return
			}
			commit, err := run(actx, node, boot)
			c.forgetBoot(node, boot, err)
			results <- attemptResult{idx: idx, hedged: hedged, commit: commit, err: err}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	var hedgeT *time.Timer
	armHedge := func() {
		hedgeC = nil
		if next >= len(cands) {
			return
		}
		// A hedge can only win by reaching a *different* node: the
		// later passes revisit nodes already racing this request (they
		// exist for failure-driven retries), and duplicating the same
		// work on the same node just doubles its load. Failure-driven
		// launches below ignore this and walk every pass.
		if launched[cands[next].Name] {
			return
		}
		if d, ok := c.hedgeDelay(kind); ok {
			if hedgeT == nil {
				hedgeT = time.NewTimer(d)
			} else {
				hedgeT.Reset(d)
			}
			hedgeC = hedgeT.C
		}
	}
	armHedge()
	if hedgeT != nil {
		defer hedgeT.Stop()
	}

	var lastErr error
	tried := 0
	for {
		select {
		case r := <-results:
			inflight--
			tried++
			if r.err == nil {
				if r.commit != nil {
					r.commit()
				}
				if r.hedged {
					c.nHedgeWins.Add(1)
				}
				return nil
			}
			lastErr = r.err
			if errors.Is(ctx.Err(), context.Canceled) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return fmt.Errorf("dist: shard %d: %w", shard, ctx.Err())
			}
			if next < len(cands) {
				c.nRetries.Add(1)
				if cands[next].Name != cands[r.idx].Name {
					c.nFailovers.Add(1)
				}
				launch(false)
				armHedge()
			} else if inflight == 0 {
				return fmt.Errorf("dist: shard %d: all %d attempt(s) failed (last: %w): %w", shard, tried, lastErr, ErrShardUnavailable)
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				c.nHedges.Add(1)
				launch(true)
				armHedge()
			}
		case <-ctx.Done():
			return fmt.Errorf("dist: shard %d: %w", shard, ctx.Err())
		}
	}
}

// shardPart is one shard's share of an id list: its ids, each of which
// sits in the list at off+j, or at src[j] when src is set.
type shardPart struct {
	ids []int64
	off int
	src []int
}

// at is the list position of the part's j-th id.
func (p shardPart) at(j int) int {
	if p.src != nil {
		return p.src[j]
	}
	return p.off + j
}

// partition splits ids into per-shard parts, remembering each id's
// position so gathered results reassemble in caller order. Ascending
// ids (catalog targets) are cut into one sub-slice per shard by binary
// search, as a shard holds a contiguous id range; others (such as
// best-first verify items) are routed one by one.
func (c *Coordinator) partition(ids []int64) []shardPart {
	parts := make([]shardPart, c.nshards)
	for lo, sorted := 0, slices.IsSorted(ids); sorted && lo < len(ids); {
		s := c.shardOf(ids[lo])
		if s < 0 || s >= c.nshards || parts[s].ids != nil {
			clear(parts) // not one run per shard: route id by id
			break
		}
		hi := lo + sort.Search(len(ids)-lo, func(j int) bool { return c.shardOf(ids[lo+j]) != s })
		parts[s] = shardPart{ids: ids[lo:hi:hi], off: lo}
		if lo = hi; lo == len(ids) {
			return parts
		}
	}
	for i, id := range ids {
		s := c.shardOf(id)
		if s < 0 || s >= c.nshards {
			// Defensive: route unknown ids to the last shard rather than
			// panic; the node's ownership check will reject them loudly.
			s = c.nshards - 1
		}
		parts[s].ids = append(parts[s].ids, id)
		parts[s].src = append(parts[s].src, i)
	}
	return parts
}

// helloAddr probes a single address outside any coordinator (msinspect
// -topology uses it for per-node health). It hangs up after the answer
// without ftEnd, which ends the node's side of the connection too.
func helloAddr(ctx context.Context, addr string, timeout time.Duration) (*HelloRes, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := writeMsg(conn, ftHello, &helloReq{}); err != nil {
		return nil, err
	}
	var res HelloRes
	if _, err := readMsg(conn, ftHelloRes, 0, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// NodeHealth is one node's probe outcome for msinspect.
type NodeHealth struct {
	Node NodeSpec
	Res  *HelloRes
	Err  error
}

// ProbeNodes hellos every declared node sequentially (health probing
// is not latency-critical) and reports per-node outcomes. A dead node
// is an entry with Err set, not a probe failure.
func ProbeNodes(ctx context.Context, topo *Topology, timeout time.Duration) []NodeHealth {
	out := make([]NodeHealth, 0, len(topo.Nodes))
	for _, n := range topo.Nodes {
		if err := ctx.Err(); err != nil {
			out = append(out, NodeHealth{Node: n, Err: err})
			continue
		}
		res, err := helloAddr(ctx, n.Addr, timeout)
		out = append(out, NodeHealth{Node: n, Res: res, Err: err})
	}
	return out
}
