package dist

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// connGraceSlack pads a request's I/O deadline past its compute
// deadline so a response computed just in time still gets written.
const connGraceSlack = 5 * time.Second

// idleTimeout bounds the wait for a connection's next request: a kept
// connection idle for longer is closed, and its coordinator redials.
const idleTimeout = 30 * time.Second

// scoreChunkSize batches streamed exact scores: small enough that the
// coordinator's τ tightens while the node is still loading masks
// (a shard-sized chunk would delay all feedback to the end of the
// shard's whole batch), large enough to amortize a frame's write and
// CRC over several scores.
const scoreChunkSize = 16

// Node serves one shard-service endpoint: it answers filter, bounds,
// verify and rank requests over the dataset it opened, running exactly the
// core-engine primitives the local executors run. A node is
// stateless across requests (its only cross-request state is the
// incrementally growing CHI index, which never changes results — only
// load counts).
type Node struct {
	name    string
	bootID  string
	st      *store.Store
	cat     *store.Catalog
	idx     *core.MemoryIndex
	workers int
	served  map[int]bool // nil: serve every shard

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	// Counters, exposed through NodeStats for the /metrics endpoint.
	nConns    atomic.Int64
	nHellos   atomic.Int64
	nFilters  atomic.Int64
	nBounds   atomic.Int64
	nVerifies atomic.Int64
	nRanks    atomic.Int64
	nErrors   atomic.Int64
	tauRecv   atomic.Int64
	scoresOut atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
}

// NodeStats is a snapshot of a node's serving counters. Conns counts
// connections accepted, each of which carries requests one at a time;
// Hellos, Filters, Bounds, Verifies and Ranks count requests.
type NodeStats struct {
	Conns, Hellos, Filters, Bounds, Verifies, Ranks, Errors int64
	TauRecv, ScoresSent                                     int64
	BytesIn, BytesOut                                       int64
}

// NewNode wraps an opened dataset as a shard-service node. served
// lists the shards this node answers for (nil or empty serves all);
// requests for ids outside it are rejected, which keeps a misrouted
// coordinator loud instead of silently wrong. workers sizes the
// engine pool per request (0 = GOMAXPROCS).
func NewNode(name string, st *store.Store, cat *store.Catalog, idx *core.MemoryIndex, workers int, served []int) *Node {
	n := &Node{
		name:    name,
		bootID:  newBootID(),
		st:      st,
		cat:     cat,
		idx:     idx,
		workers: workers,
		conns:   make(map[net.Conn]bool),
	}
	if len(served) > 0 {
		n.served = make(map[int]bool, len(served))
		for _, s := range served {
			n.served[s] = true
		}
	}
	return n
}

// newBootID returns a random per-process identity; the coordinator
// resets its cumulative stats baseline when it changes.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; an all-zero
		// id only weakens stats-baseline resets, not correctness.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// Stats snapshots the serving counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Conns: n.nConns.Load(), Hellos: n.nHellos.Load(),
		Filters: n.nFilters.Load(), Bounds: n.nBounds.Load(),
		Verifies: n.nVerifies.Load(), Ranks: n.nRanks.Load(), Errors: n.nErrors.Load(),
		TauRecv: n.tauRecv.Load(), ScoresSent: n.scoresOut.Load(),
		BytesIn: n.bytesIn.Load(), BytesOut: n.bytesOut.Load(),
	}
}

// BootID reports the node's per-process identity.
func (n *Node) BootID() string { return n.bootID }

// Serve accepts connections until Close. Each connection carries
// requests one at a time until its client hangs up.
func (n *Node) Serve(lis net.Listener) error {
	n.mu.Lock()
	if n.closed {
		// Close raced ahead of us; shut the listener it never saw so
		// the port stops accepting (a dangling open listener would
		// black-hole dials instead of refusing them).
		n.mu.Unlock()
		lis.Close()
		return nil
	}
	n.lis = lis
	n.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("dist: node %s accept: %w", n.name, err)
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return nil
		}
		n.conns[conn] = true
		n.wg.Add(1)
		n.mu.Unlock()
		go func() {
			defer n.wg.Done()
			n.handleConn(conn)
			n.mu.Lock()
			delete(n.conns, conn)
			n.mu.Unlock()
		}()
	}
}

// Close stops accepting, tears down in-flight connections and waits
// for their handlers to exit. The dataset store is the caller's to
// close.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	lis := n.lis
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	n.wg.Wait()
	return err
}

// env builds the per-request execution environment, growing the
// node's index from every verified mask exactly like the local DB.
func (n *Node) env() *core.Env {
	return &core.Env{
		Loader: n.st,
		Index:  n.idx,
		Exec:   core.ExecFor(n.workers),
		OnVerify: func(id int64, m *core.Mask) {
			if chi, _ := n.idx.ChiFor(id); chi == nil {
				n.idx.Observe(id, m)
			}
		},
	}
}

// info identifies the node and snapshots its cumulative per-shard read
// counters for the coordinator's stats folding.
func (n *Node) info() nodeInfo {
	return nodeInfo{Node: n.name, BootID: n.bootID, Reads: n.st.ShardStats()}
}

// checkOwned rejects ids routed to a node that does not serve their
// shard: id by id, or once per shard run when ids ascend (a shard holds
// a contiguous id range).
func (n *Node) checkOwned(ids []int64) error {
	if n.served == nil {
		return nil
	}
	sorted := slices.IsSorted(ids)
	for i := 0; i < len(ids); i++ {
		s := n.st.ShardOf(ids[i])
		if !n.served[s] {
			return fmt.Errorf("dist: node %s does not serve shard %d (mask %d)", n.name, s, ids[i])
		}
		if sorted { // on to the next shard's first id
			i += sort.Search(len(ids)-i, func(j int) bool { return n.st.ShardOf(ids[i+j]) != s }) - 1
		}
	}
	return nil
}

// fromWireTerm reconstructs an engine term against this node's catalog.
func (n *Node) fromWireTerm(wt wireTerm) (core.CPTerm, error) {
	t := core.CPTerm{Name: wt.Name, Range: wt.Range, Spec: wt.Spec}
	switch wt.Spec.Kind {
	case core.RegionRect:
		t.Region = core.FixedRegion(wt.Spec.Rect)
	case core.RegionObject:
		t.Region = n.cat.ObjectROI()
	default:
		return t, fmt.Errorf("dist: term %q has region kind %d: %w", wt.Name, wt.Spec.Kind, errNotDistributable)
	}
	return t, nil
}

// decodeReq decodes a work request into req and refuses it when bootID,
// the boot its coordinator validated, is not this process: the request
// was meant for a predecessor, possibly over another dataset.
func (n *Node) decodeReq(payload []byte, req wireMsg, bootID *string) error {
	if err := decodeMsg(payload, req); err != nil {
		return fmt.Errorf("dist: node %s: decode request: %w", n.name, err)
	}
	if *bootID != n.bootID {
		return fmt.Errorf("dist: node %s: request validated against boot %q, this is boot %q", n.name, *bootID, n.bootID)
	}
	return nil
}

// reqCtx derives the request's compute context from the connection's
// and arms the connection's I/O deadline (with slack for writing the
// response).
func reqCtx(ctx context.Context, conn net.Conn, deadlineMS int64) (context.Context, context.CancelFunc) {
	if deadlineMS <= 0 {
		return context.WithCancel(ctx)
	}
	d := time.Duration(deadlineMS) * time.Millisecond
	conn.SetDeadline(time.Now().Add(d + connGraceSlack))
	return context.WithTimeout(ctx, d)
}

// handleConn serves requests on conn until the client hangs up.
func (n *Node) handleConn(conn net.Conn) {
	defer conn.Close()
	n.nConns.Add(1)
	for n.serveOne(conn) {
	}
}

// serveOne serves one request on conn: read the request frame,
// dispatch, write the response, then read to the client's ftEnd,
// applying late τ pushes, so that none is read as the next request. It
// reports whether ftEnd came, which keeps the connection for the next
// request; a hang-up (helloAddr ends that way) or a failed read ends it.
func (n *Node) serveOne(conn net.Conn) bool {
	// A request frame must arrive promptly; requests with a DeadlineMS
	// re-arm the deadline from it.
	conn.SetDeadline(time.Now().Add(idleTimeout))
	typ, payload, sz, err := ReadFrame(conn, 0)
	n.bytesIn.Add(int64(sz))
	if err != nil {
		// A client closing its kept connection, or leaving it idle, is
		// not a failed request.
		if !errors.Is(err, io.EOF) && !errors.Is(err, os.ErrDeadlineExceeded) {
			n.nErrors.Add(1)
		}
		return false
	}
	conn.SetDeadline(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var p pushes
	ended := n.readRest(conn, cancel, &p)
	switch typ {
	case ftHello:
		n.nHellos.Add(1)
		err = n.handleHello(conn, payload)
	case ftFilter:
		n.nFilters.Add(1)
		err = n.handleFilter(ctx, conn, payload)
	case ftBounds:
		n.nBounds.Add(1)
		err = n.handleBounds(ctx, conn, payload)
	case ftVerify:
		n.nVerifies.Add(1)
		err = n.handleVerify(ctx, cancel, conn, payload, &p)
	case ftRank:
		n.nRanks.Add(1)
		err = n.handleRank(ctx, cancel, conn, payload, &p)
	default:
		err = fmt.Errorf("dist: node %s: unknown request frame 0x%02x", n.name, typ)
	}
	if err != nil {
		n.nErrors.Add(1)
		n.writeErr(conn, err)
	}
	conn.SetReadDeadline(time.Now().Add(connGraceSlack))
	return <-ended
}

// pushes is one request's τ pushes: the latest, and the request's gate
// once armed, which every push tightens and the latest seeds.
type pushes struct {
	mu   sync.Mutex
	tau  *core.Scored
	gate interface{ Tighten(core.Scored) }
}

// add keeps the push t or arms the gate g, whichever is set, and
// tightens the armed gate by the latest push.
func (p *pushes) add(t *core.Scored, g interface{ Tighten(core.Scored) }) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tau, p.gate = cmp.Or(t, p.tau), cmp.Or(g, p.gate)
	if p.tau != nil && p.gate != nil {
		p.gate.Tighten(*p.tau)
	}
}

// readRest reads what the client sends after its request, τ pushes, up
// to the client's ftEnd. It reports true on ftEnd, false on a failed
// read (a hang-up, the deadline) or any other frame, and then cancels
// the request's work.
func (n *Node) readRest(conn net.Conn, cancel context.CancelFunc, p *pushes) <-chan bool {
	ended := make(chan bool, 1)
	go func() {
		defer cancel()
		for {
			typ, payload, sz, err := ReadFrame(conn, 0)
			n.bytesIn.Add(int64(sz))
			if err != nil || typ != ftTau {
				ended <- err == nil && typ == ftEnd
				return
			}
			var push tauPush
			if decodeMsg(payload, &push) == nil && !math.IsNaN(push.Score) {
				p.add((*core.Scored)(&push), nil)
				n.tauRecv.Add(1)
			}
		}
	}()
	return ended
}

// writeMsg writes one frame, accounting its bytes.
func (n *Node) writeMsg(conn net.Conn, typ byte, m wireMsg) error {
	sz, err := writeMsg(conn, typ, m)
	n.bytesOut.Add(int64(sz))
	return err
}

func (n *Node) writeErr(conn net.Conn, err error) {
	n.writeMsg(conn, ftError, &wireError{Msg: err.Error(), BootID: n.bootID})
}

func (n *Node) handleHello(conn net.Conn, payload []byte) error {
	if err := decodeMsg(payload, &helloReq{}); err != nil {
		return fmt.Errorf("dist: node %s: decode hello: %w", n.name, err)
	}
	return n.writeMsg(conn, ftHelloRes, &HelloRes{
		Wire: WireVersion, Node: n.name, BootID: n.bootID,
		NumMasks: n.st.NumMasks(), MaskW: n.st.MaskW(), MaskH: n.st.MaskH(),
		Shards: n.st.NumShards(), Codec: n.st.Codec(), GenVersion: n.st.GenVersion(),
	})
}

func (n *Node) handleFilter(ctx context.Context, conn net.Conn, payload []byte) error {
	var req filterReq
	if err := n.decodeReq(payload, &req, &req.BootID); err != nil {
		return err
	}
	if err := n.checkOwned(req.IDs); err != nil {
		return err
	}
	terms := make([]core.CPTerm, len(req.Terms))
	for i, wt := range req.Terms {
		var err error
		if terms[i], err = n.fromWireTerm(wt); err != nil {
			return err
		}
	}
	for _, c := range req.Pred {
		if c.T < 0 || int(c.T) >= len(terms) {
			return fmt.Errorf("dist: node %s: predicate on term T%d of %d", n.name, c.T, len(terms))
		}
	}
	ctx, cancel := reqCtx(ctx, conn, req.DeadlineMS)
	defer cancel()
	keep, _, st, err := n.env().Filter(ctx, req.IDs, terms, fromWirePred(req.Pred))
	if err != nil {
		return err
	}
	return n.writeMsg(conn, ftFilterRes, &filterRes{Keep: keep, Stats: st, Node: n.info()})
}

func (n *Node) handleBounds(ctx context.Context, conn net.Conn, payload []byte) error {
	var req boundsReq
	if err := n.decodeReq(payload, &req, &req.BootID); err != nil {
		return err
	}
	if err := n.checkOwned(req.IDs); err != nil {
		return err
	}
	term, err := n.fromWireTerm(req.Term)
	if err != nil {
		return err
	}
	ctx, cancel := reqCtx(ctx, conn, req.DeadlineMS)
	defer cancel()
	cands, st, err := core.BoundCands(ctx, n.env(), req.IDs, term)
	if err != nil {
		return err
	}
	return n.writeMsg(conn, ftBoundsRes, &boundsRes{Cands: cands, Stats: st, Node: n.info()})
}

// scoreStreamer batches verified scores into ftScores frames. emit is
// called concurrently by the worker-pool engine; a write failure
// cancels the request context so the verification loop stops instead
// of computing scores nobody will read.
type scoreStreamer struct {
	node   *Node
	conn   net.Conn
	cancel context.CancelFunc

	mu    sync.Mutex
	chunk scoreChunk
	werr  error
}

func (s *scoreStreamer) emit(i int, score int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.werr != nil {
		return
	}
	s.chunk = append(s.chunk, idxScore{Idx: i, Score: score})
	if len(s.chunk) >= scoreChunkSize {
		s.flushLocked()
	}
}

func (s *scoreStreamer) flushLocked() {
	if len(s.chunk) == 0 {
		return
	}
	s.node.scoresOut.Add(int64(len(s.chunk)))
	err := s.node.writeMsg(s.conn, ftScores, &s.chunk)
	s.chunk = s.chunk[:0]
	if err != nil {
		s.werr = err
		s.cancel()
	}
}

// finish flushes the tail and reports the first write error.
func (s *scoreStreamer) finish() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.werr
}

// handleVerify verifies the request's items under the gate it ships,
// rebuilt and armed for the coordinator's pushes.
func (n *Node) handleVerify(ctx context.Context, cancel context.CancelFunc, conn net.Conn, payload []byte, p *pushes) error {
	var req verifyReq
	if err := n.decodeReq(payload, &req, &req.BootID); err != nil {
		return err
	}
	ids := make([]int64, len(req.Items))
	for i, it := range req.Items {
		ids[i] = it.ID
	}
	if err := n.checkOwned(ids); err != nil {
		return err
	}
	term, err := n.fromWireTerm(req.Term)
	if err != nil {
		return err
	}
	gate, err := core.RebuildGate(req.Gate, req.Items)
	if err != nil {
		return fmt.Errorf("dist: node %s: %w", n.name, err)
	}
	p.add(nil, gate)
	return n.stream(ctx, cancel, conn, req.DeadlineMS, ftVerifyRes, func(ctx context.Context, emit func(int, int64)) (core.Stats, error) {
		return gate.Verify(ctx, n.env(), req.Items, term, emit)
	})
}

// handleRank runs the top-k's per-shard routine over the request's ids
// under the node's own τ tracker, armed for the coordinator's pushes.
func (n *Node) handleRank(ctx context.Context, cancel context.CancelFunc, conn net.Conn, payload []byte, p *pushes) error {
	var req rankReq
	if err := n.decodeReq(payload, &req, &req.BootID); err != nil {
		return err
	}
	if req.K < 1 || req.Ord != core.Desc && req.Ord != core.Asc {
		return fmt.Errorf("dist: node %s: rank k %d, order %d", n.name, req.K, req.Ord)
	}
	if err := n.checkOwned(req.IDs); err != nil {
		return err
	}
	term, err := n.fromWireTerm(req.Term)
	if err != nil {
		return err
	}
	tt := core.NewTauTracker(req.K, req.Ord)
	p.add(nil, tt)
	return n.stream(ctx, cancel, conn, req.DeadlineMS, ftRankRes, func(ctx context.Context, emit func(int, int64)) (core.Stats, error) {
		return core.RankShard(ctx, n.env(), req.IDs, term, tt, emit)
	})
}

// stream runs a streaming request's work, whose every exact score emit
// batches into ftScores frames, and terminates the stream with resType.
func (n *Node) stream(ctx context.Context, cancel context.CancelFunc, conn net.Conn, deadlineMS int64, resType byte, work func(context.Context, func(int, int64)) (core.Stats, error)) error {
	ctx, cancelReq := reqCtx(ctx, conn, deadlineMS)
	defer cancelReq()
	stream := &scoreStreamer{node: n, conn: conn, cancel: cancel}
	st, err := work(ctx, stream.emit)
	if err != nil {
		return err
	}
	if err := stream.finish(); err != nil {
		return err
	}
	return n.writeMsg(conn, resType, &verifyRes{Stats: st, Node: n.info()})
}
