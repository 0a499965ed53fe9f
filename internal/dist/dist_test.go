package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// testCluster is a generated sharded dataset plus a local comparison
// engine over it. Every started node opens its own store instance, so
// node-side read counters never mix with the local engine's.
type testCluster struct {
	t     *testing.T
	dir   string
	spec  store.Spec
	st    store.MaskStore
	sst   *store.Store
	cat   *store.Catalog
	env   *core.Env
	terms []core.CPTerm
}

func indexCfg(t *testing.T) core.Config {
	cfg, err := core.Config{CellW: 8, CellH: 8, Edges: core.DefaultEdges(8)}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func newCluster(t *testing.T, shards int) *testCluster {
	t.Helper()
	dir := t.TempDir()
	spec := store.TinySpec()
	if err := store.Generate(dir, spec, shards, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, cat, err := store.OpenAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	idx := core.NewMemoryIndex(indexCfg(t))
	env := &core.Env{
		Loader: st, Index: idx, Exec: core.ExecFor(0),
		OnVerify: func(id int64, m *core.Mask) {
			if chi, _ := idx.ChiFor(id); chi == nil {
				idx.Observe(id, m)
			}
		},
	}
	full := core.Rect{X1: spec.W, Y1: spec.H}
	terms := []core.CPTerm{
		{
			Name: "obj", Region: cat.ObjectROI(),
			Range: core.ValueRange{Lo: 0.6, Hi: 1.0},
			Spec:  core.RegionSpec{Kind: core.RegionObject},
		},
		{
			Name: "full", Region: core.FixedRegion(full),
			Range: core.ValueRange{Lo: 0.8, Hi: 1.0},
			Spec:  core.RegionSpec{Kind: core.RegionRect, Rect: full},
		},
	}
	c := &testCluster{t: t, dir: dir, spec: spec, st: st, cat: cat, env: env, terms: terms}
	c.sst = st
	return c
}

func (c *testCluster) shards() int {
	if c.sst != nil {
		return c.sst.NumShards()
	}
	return 1
}

func (c *testCluster) shardOf() func(int64) int {
	if c.sst != nil {
		return c.sst.ShardOf
	}
	return func(int64) int { return 0 }
}

func (c *testCluster) expect() Expect {
	return Expect{
		NumMasks: c.st.NumMasks(), MaskW: c.st.MaskW(), MaskH: c.st.MaskH(),
		Shards: c.shards(), Codec: c.st.Codec(), GenVersion: c.st.GenVersion(),
	}
}

// startNode opens a fresh store over the cluster's dataset and serves
// it on a loopback listener. served restricts the node's shard
// ownership (nil serves all).
func (c *testCluster) startNode(name string, served []int) (*Node, string) {
	c.t.Helper()
	st, cat, err := store.OpenAny(c.dir)
	if err != nil {
		c.t.Fatal(err)
	}
	n := NewNode(name, st, cat, core.NewMemoryIndex(indexCfg(c.t)), 0, served)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.t.Fatal(err)
	}
	go n.Serve(lis)
	c.t.Cleanup(func() {
		n.Close()
		st.Close()
	})
	return n, lis.Addr().String()
}

// coordinator builds a coordinator over an explicit shard → node-names
// routing against the given name → addr table.
func (c *testCluster) coordinator(addrs map[string]string, routes [][]string, opts CoordOptions) *Coordinator {
	c.t.Helper()
	topo := &Topology{}
	for name, addr := range addrs {
		topo.Nodes = append(topo.Nodes, NodeSpec{Name: name, Addr: addr})
	}
	for s, names := range routes {
		topo.Shards = append(topo.Shards, ShardRoute{Shard: s, Nodes: names})
	}
	coord, err := NewCoordinator(topo, c.expect(), c.shardOf(), opts)
	if err != nil {
		c.t.Fatal(err)
	}
	return coord
}

func (c *testCluster) targets() []int64 {
	return c.cat.MaskIDs(nil)
}

// checkAll runs every plan kind through the coordinator and compares
// byte-for-byte against the local sharded engine.
func (c *testCluster) checkAll(coord *Coordinator, part *Partial) {
	c.t.Helper()
	ctx := context.Background()
	targets := c.targets()
	pred := core.And{core.Cmp{T: 0, Op: core.OpGt, C: 20}, core.Cmp{T: 1, Op: core.OpLt, C: 900}}

	wantIDs, _, err := core.Filter(ctx, c.env, targets, c.terms, pred)
	if err != nil {
		c.t.Fatal(err)
	}
	gotIDs, _, err := core.FilterOn(ctx, coord.Stages(part), targets, c.terms, pred)
	if err != nil {
		c.t.Fatalf("dist filter: %v", err)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		c.t.Fatalf("filter mismatch: got %d ids, want %d\ngot:  %v\nwant: %v", len(gotIDs), len(wantIDs), gotIDs, wantIDs)
	}

	c.checkRanking(coord, part, targets, c.cat.GroupByImage(nil))
}

// checkRanking compares both ranking kinds through the coordinator with
// the local engine over the same targets and groups: top-k at k = all,
// 1, 10 and beyond the candidates, aggregation under every aggregate,
// both orders throughout, with an empty and a singleton group added.
func (c *testCluster) checkRanking(coord *Coordinator, part *Partial, targets []int64, groups []core.Group) {
	c.t.Helper()
	ctx := context.Background()
	for _, ord := range []core.Order{core.Desc, core.Asc} {
		for _, k := range []int{0, 1, 10, len(targets) + 5} {
			want, _, err := core.TopK(ctx, c.env, targets, c.terms, 0, k, ord)
			if err != nil {
				c.t.Fatal(err)
			}
			got, _, err := core.TopKOn(ctx, coord.Stages(part), targets, c.terms, 0, k, ord)
			if err != nil {
				c.t.Fatalf("dist topk %v k=%d: %v", ord, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				c.t.Fatalf("topk %v k=%d mismatch:\ngot:  %v\nwant: %v", ord, k, got, want)
			}
		}
	}

	groups = append(groups, core.Group{Key: -1}, core.Group{Key: -2, IDs: targets[:1]})
	for _, ord := range []core.Order{core.Desc, core.Asc} {
		for _, agg := range []core.Agg{core.Mean, core.Sum, core.Min, core.Max} {
			want, _, err := core.AggTopK(ctx, c.env, groups, c.terms, 0, agg, 10, ord)
			if err != nil {
				c.t.Fatal(err)
			}
			got, _, err := core.AggTopKOn(ctx, coord.Stages(part), groups, c.terms, 0, agg, 10, ord)
			if err != nil {
				c.t.Fatalf("dist agg %v %v: %v", agg, ord, err)
			}
			if !reflect.DeepEqual(got, want) {
				c.t.Fatalf("agg %v %v mismatch:\ngot:  %v\nwant: %v", agg, ord, got, want)
			}
		}
	}
}

// TestDistMatchesLocal is the byte-identity property test: every plan
// kind, across one and two remote nodes, must reproduce the local
// sharded engine's results exactly.
func TestDistMatchesLocal(t *testing.T) {
	c := newCluster(t, 2)
	_, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)

	cases := []struct {
		name   string
		addrs  map[string]string
		routes [][]string
		opts   CoordOptions
	}{
		{"one node", map[string]string{"a": addrA}, [][]string{{"a"}, {"a"}}, CoordOptions{}},
		{"two nodes", map[string]string{"a": addrA, "b": addrB}, [][]string{{"a"}, {"b"}}, CoordOptions{}},
		{"replicated", map[string]string{"a": addrA, "b": addrB}, [][]string{{"a", "b"}, {"b", "a"}}, CoordOptions{HedgeAfter: time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := c.coordinator(tc.addrs, tc.routes, tc.opts)
			c.checkAll(coord, nil)
		})
	}
}

// TestDistFailover kills a replica-backed primary mid-run: every query
// before and after must succeed with byte-identical results, and the
// coordinator must record the failovers.
func TestDistFailover(t *testing.T) {
	c := newCluster(t, 2)
	primary, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	coord := c.coordinator(
		map[string]string{"a": addrA, "b": addrB},
		[][]string{{"a", "b"}, {"a", "b"}},
		CoordOptions{HedgeAfter: -1, DialTimeout: 500 * time.Millisecond},
	)
	c.checkAll(coord, nil)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	c.checkAll(coord, nil)
	st := coord.Stats()
	if st.Failovers == 0 {
		t.Fatalf("no failovers recorded after killing the primary: %+v", st)
	}
}

// TestDistFailClosed: a shard whose only node is down fails the query
// with ErrShardUnavailable — never a silent partial answer.
func TestDistFailClosed(t *testing.T) {
	c := newCluster(t, 2)
	dead, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	dead.Close()
	coord := c.coordinator(
		map[string]string{"a": addrA, "b": addrB},
		[][]string{{"a"}, {"b"}},
		CoordOptions{Retries: -1, DialTimeout: 200 * time.Millisecond},
	)
	_, _, err := core.FilterOn(context.Background(), coord.Stages(nil), c.targets(), c.terms, nil)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
}

// TestDistDegraded: with an explicit Partial collector the same outage
// yields the live shards' results, flagged with the missing shard.
func TestDistDegraded(t *testing.T) {
	c := newCluster(t, 2)
	dead, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	dead.Close()
	coord := c.coordinator(
		map[string]string{"a": addrA, "b": addrB},
		[][]string{{"a"}, {"b"}},
		CoordOptions{Retries: -1, DialTimeout: 200 * time.Millisecond},
	)
	ctx := context.Background()
	targets := c.targets()

	part := coord.NewPartial()
	got, _, err := core.FilterOn(ctx, coord.Stages(part), targets, c.terms, nil)
	if err != nil {
		t.Fatalf("degraded filter: %v", err)
	}
	if !part.Degraded() || !reflect.DeepEqual(part.Missing(), []int{0}) {
		t.Fatalf("degraded = %v, missing = %v; want shard 0 missing", part.Degraded(), part.Missing())
	}
	// The degraded result must equal the local engine restricted to the
	// live shard's targets — partial, never wrong.
	var live []int64
	for _, id := range targets {
		if c.shardOf()(id) == 1 {
			live = append(live, id)
		}
	}
	want, _, err := core.Filter(ctx, c.env, live, c.terms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded filter mismatch:\ngot:  %v\nwant: %v", got, want)
	}
	if coord.Stats().Degraded == 0 {
		t.Fatal("degraded counter not incremented")
	}

	// Cancellation must never be reported as a degraded success.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := core.FilterOn(cctx, coord.Stages(coord.NewPartial()), targets, c.terms, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query err = %v, want context.Canceled", err)
	}
}

// TestDistDegradedRanking: with shard 0's only node down, degraded
// top-k and aggregation answer exactly what the local engine answers
// over the targets, and the groups, that lie wholly on the live shard.
func TestDistDegradedRanking(t *testing.T) {
	c := newCluster(t, 2)
	dead, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	dead.Close()
	coord := c.coordinator(
		map[string]string{"a": addrA, "b": addrB},
		[][]string{{"a"}, {"b"}},
		CoordOptions{Retries: -1, DialTimeout: 200 * time.Millisecond},
	)
	onLive := func(id int64) bool { return c.shardOf()(id) == 1 }
	var live []int64
	for _, id := range c.targets() {
		if onLive(id) {
			live = append(live, id)
		}
	}
	var liveGroups []core.Group
	for _, g := range c.cat.GroupByImage(nil) {
		whole := true
		for _, id := range g.IDs {
			whole = whole && onLive(id)
		}
		if whole {
			liveGroups = append(liveGroups, g)
		}
	}
	if len(live) == 0 || len(liveGroups) == 0 {
		t.Fatalf("fixture has %d live targets and %d live groups", len(live), len(liveGroups))
	}
	ctx := context.Background()
	for _, ord := range []core.Order{core.Desc, core.Asc} {
		part := coord.NewPartial()
		got, _, err := core.TopKOn(ctx, coord.Stages(part), c.targets(), c.terms, 0, 10, ord)
		if err != nil {
			t.Fatalf("degraded topk %v: %v", ord, err)
		}
		want, _, err := core.TopK(ctx, c.env, live, c.terms, 0, 10, ord)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(part.Missing(), []int{0}) {
			t.Fatalf("degraded topk %v (missing %v):\ngot:  %v\nwant: %v", ord, part.Missing(), got, want)
		}
	}
	part := coord.NewPartial()
	got, _, err := core.AggTopKOn(ctx, coord.Stages(part), c.cat.GroupByImage(nil), c.terms, 0, core.Mean, 10, core.Desc)
	if err != nil {
		t.Fatalf("degraded agg: %v", err)
	}
	want, _, err := core.AggTopK(ctx, c.env, liveGroups, c.terms, 0, core.Mean, 10, core.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(part.Missing(), []int{0}) {
		t.Fatalf("degraded agg (missing %v):\ngot:  %v\nwant: %v", part.Missing(), got, want)
	}
}

// TestHedgeDelay pins the hedging policy: a set HedgeAfter applies to
// every kind, a negative one disables hedging, and the adaptive default
// hedges filter and bounds requests at their recent p95 (floored) once
// warm — and verify requests, which stream, always at the cold delay.
func TestHedgeDelay(t *testing.T) {
	for _, tc := range []struct {
		after time.Duration
		kind  int
		want  time.Duration
		ok    bool
	}{
		{-1, kindBounds, 0, false},
		{7 * time.Millisecond, kindBounds, 7 * time.Millisecond, true},
		{7 * time.Millisecond, kindVerify, 7 * time.Millisecond, true},
		{0, kindBounds, defaultHedgeCold, true},
	} {
		c := &Coordinator{opts: CoordOptions{HedgeAfter: tc.after}, lat: latWindows()}
		if d, ok := c.hedgeDelay(tc.kind); d != tc.want || ok != tc.ok {
			t.Errorf("HedgeAfter %v kind %d: delay %v %v, want %v %v", tc.after, tc.kind, d, ok, tc.want, tc.ok)
		}
	}
	c := &Coordinator{lat: latWindows()}
	for i := range latWarmup {
		c.lat[kindFilter].Observe(time.Duration(i+1) * 10 * time.Millisecond)
		c.lat[kindBounds].Observe(time.Microsecond)
		c.lat[kindVerify].Observe(time.Millisecond)
	}
	for kind, want := range map[int]time.Duration{
		kindFilter: 70 * time.Millisecond, // the p95 of 10, 20, …, 80 ms
		kindBounds: defaultHedgeFloor,
		kindVerify: defaultHedgeCold,
	} {
		if d, ok := c.hedgeDelay(kind); d != want || !ok {
			t.Errorf("warm kind %d: delay %v %v, want %v", kind, d, ok, want)
		}
	}
}

// TestDistOwnership: routing a shard to a node that does not serve it
// fails loudly instead of answering from the wrong shard.
func TestDistOwnership(t *testing.T) {
	c := newCluster(t, 2)
	_, addr := c.startNode("a", []int{1})
	coord := c.coordinator(
		map[string]string{"a": addr},
		[][]string{{"a"}, {"a"}},
		CoordOptions{Retries: -1},
	)
	_, _, err := core.FilterOn(context.Background(), coord.Stages(nil), c.targets(), c.terms, nil)
	if err == nil || !strings.Contains(err.Error(), "does not serve shard") {
		t.Fatalf("err = %v, want ownership rejection", err)
	}
}

// TestDistExpectMismatch: a node serving a different dataset is
// rejected at hello time.
func TestDistExpectMismatch(t *testing.T) {
	c := newCluster(t, 2)
	_, addr := c.startNode("a", nil)
	topo := &Topology{
		Nodes:  []NodeSpec{{Name: "a", Addr: addr}},
		Shards: []ShardRoute{{Shard: 0, Nodes: []string{"a"}}, {Shard: 1, Nodes: []string{"a"}}},
	}
	exp := c.expect()
	exp.NumMasks++
	coord, err := NewCoordinator(topo, exp, c.shardOf(), CoordOptions{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = core.FilterOn(context.Background(), coord.Stages(nil), c.targets(), c.terms, nil)
	if err == nil || !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("err = %v, want dataset mismatch rejection", err)
	}
}

// listen serves each connection accepted on a loopback listener with
// serve, and closes it after.
func listen(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return lis.Addr().String()
}

// fakeNode serves a raw loopback listener: handle gets each
// connection's first frame and answers it however the test needs.
func fakeNode(t *testing.T, handle func(conn net.Conn, typ byte, payload []byte)) string {
	return listen(t, func(conn net.Conn) {
		if typ, payload, _, err := ReadFrame(conn, 0); err == nil {
			handle(conn, typ, payload)
		}
	})
}

// frameProxy relays each client connection to its own connection to
// upstream, frame by frame. down writes to the client each frame the
// node sends back, rewritten as the test needs; with hangUp the proxy
// closes both connections after it relays the client's ftEnd, so every
// kept connection the client pools is stale by its next request.
func frameProxy(t *testing.T, upstream string, down func(conn net.Conn, typ byte, payload []byte) error, hangUp bool) string {
	return listen(t, func(conn net.Conn) {
		up, err := net.Dial("tcp", upstream)
		if err != nil {
			return
		}
		defer up.Close()
		go func() {
			defer conn.Close()
			for {
				typ, p, _, err := ReadFrame(up, 0)
				if err != nil {
					return
				}
				if err := down(conn, typ, p); err != nil {
					return
				}
			}
		}()
		for {
			typ, p, _, err := ReadFrame(conn, 0)
			if err != nil {
				return
			}
			if _, err := WriteFrame(up, typ, p); err != nil || hangUp && typ == ftEnd {
				return
			}
		}
	})
}

// relay writes a frame on unchanged.
func relay(conn net.Conn, typ byte, payload []byte) error {
	_, err := WriteFrame(conn, typ, payload)
	return err
}

// TestDistWireVersionMismatch: a node speaking another wire version is
// rejected at hello, with both versions named, before any work reaches
// it.
func TestDistWireVersionMismatch(t *testing.T) {
	c := newCluster(t, 2)
	e := c.expect()
	hello := HelloRes{Wire: WireVersion + 1, Node: "a", BootID: "b", NumMasks: e.NumMasks, MaskW: e.MaskW, MaskH: e.MaskH,
		Shards: e.Shards, Codec: e.Codec, GenVersion: e.GenVersion}
	var work atomic.Int64
	addr := fakeNode(t, func(conn net.Conn, typ byte, _ []byte) {
		if typ != ftHello {
			work.Add(1)
			return
		}
		writeMsg(conn, ftHelloRes, &hello)
	})
	coord := c.coordinator(map[string]string{"a": addr}, [][]string{{"a"}, {"a"}}, CoordOptions{Retries: -1})
	_, _, err := core.FilterOn(context.Background(), coord.Stages(nil), c.targets(), c.terms, nil)
	want := fmt.Sprintf("wire version %d, this coordinator wire version %d", WireVersion+1, WireVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if work.Load() != 0 {
		t.Fatalf("%d work requests reached a node of another wire version", work.Load())
	}
}

// TestDistRejectsMisorderedBounds: bounds answers reach their masks by
// position, so a node that answers in another order than asked — here a
// proxy in front of node b that reverses every bounds answer on every
// exchange of a kept connection — fails its attempt and the query
// answers from the replica.
func TestDistRejectsMisorderedBounds(t *testing.T) {
	c := newCluster(t, 2)
	_, addrB := c.startNode("b", nil)
	var reversed atomic.Int64
	addrX := frameProxy(t, addrB, func(conn net.Conn, typ byte, payload []byte) error {
		var res boundsRes
		if typ == ftBoundsRes && decodeMsg(payload, &res) == nil {
			slices.Reverse(res.Cands)
			reversed.Add(1)
			payload = encodeMsg(nil, &res)
		}
		_, err := WriteFrame(conn, typ, payload)
		return err
	}, false)
	coord := c.coordinator(
		map[string]string{"x": addrX, "b": addrB},
		[][]string{{"x", "b"}, {"x", "b"}},
		CoordOptions{HedgeAfter: -1},
	)
	c.checkRanking(coord, nil, c.targets(), c.cat.GroupByImage(nil))
	if reversed.Load() == 0 {
		t.Fatal("the proxy reversed no bounds answer")
	}
	if st := coord.Stats(); st.Failovers == 0 {
		t.Fatalf("no failovers after misordered bounds answers: %+v", st)
	}
}

// TestDistRedialsStaleConn: a peer that closes each connection after
// its exchange leaves every kept connection stale. Each request's
// failure on one redials at once, unseen by the attempt runner: every
// answer equals the local engine's, with no retry and no failover.
func TestDistRedialsStaleConn(t *testing.T) {
	c := newCluster(t, 2)
	_, addrA := c.startNode("a", nil)
	addrX := frameProxy(t, addrA, relay, true)
	coord := c.coordinator(map[string]string{"x": addrX}, [][]string{{"x"}, {"x"}}, CoordOptions{HedgeAfter: -1})
	c.checkAll(coord, nil)
	st := coord.Stats()
	if st.Retries != 0 || st.Failovers != 0 {
		t.Fatalf("stale connections surfaced as failed attempts: %+v", st)
	}
	// Every exchange dials, and all but the first found a stale one first.
	if st.Dials <= st.Requests {
		t.Fatalf("%d dials for %d requests: no stale connection was redialed", st.Dials, st.Requests)
	}
}

// TestDistCorruptAnswerFailsOver: a corrupt answer on a kept
// connection is an answer, not a stale connection: the attempt fails
// at once and the query answers from the replica, byte-identically,
// with every corrupt answer one retry and one failover — never the
// same request sent again to the node that answered it.
func TestDistCorruptAnswerFailsOver(t *testing.T) {
	c := newCluster(t, 2)
	_, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	var corrupted atomic.Int64
	addrX := frameProxy(t, addrA, func(conn net.Conn, typ byte, payload []byte) error {
		if typ != ftBoundsRes {
			return relay(conn, typ, payload)
		}
		var f bytes.Buffer
		WriteFrame(&f, typ, payload)
		f.Bytes()[f.Len()-1] ^= 1
		corrupted.Add(1)
		_, err := conn.Write(f.Bytes())
		return err
	}, false)
	coord := c.coordinator(map[string]string{"x": addrX, "b": addrB}, [][]string{{"x", "b"}, {"x", "b"}}, CoordOptions{HedgeAfter: -1})
	c.checkRanking(coord, nil, c.targets(), c.cat.GroupByImage(nil))
	st := coord.Stats()
	if n := corrupted.Load(); n == 0 || st.Retries != n || st.Failovers != n {
		t.Fatalf("%d corrupt answers: %+v", n, st)
	}
	if st.Dials <= 2 {
		t.Fatalf("%d dials: the corrupt answers' connections were kept", st.Dials)
	}
}

// TestDistRevalidatesRestartedNode: a node restarted at the same address
// over another dataset (more masks, other pixels) must be validated
// again before it serves work; the queries after the restart answer
// from the replica, byte-identically.
func TestDistRevalidatesRestartedNode(t *testing.T) {
	c := newCluster(t, 2)
	a, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	coord := c.coordinator(
		map[string]string{"a": addrA, "b": addrB},
		[][]string{{"a", "b"}, {"a", "b"}},
		CoordOptions{HedgeAfter: -1},
	)
	c.checkAll(coord, nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spec := store.TinySpec()
	spec.Images += 16
	spec.Seed++
	if err := store.Generate(dir, spec, 2, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, cat, err := store.OpenAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.NumMasks() == c.st.NumMasks() {
		t.Fatalf("restart dataset has the same %d masks", st.NumMasks())
	}
	restarted := NewNode("a", st, cat, core.NewMemoryIndex(indexCfg(t)), 0, nil)
	lis, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	go restarted.Serve(lis)
	t.Cleanup(func() { restarted.Close() })

	before := coord.Stats().Failovers
	c.checkAll(coord, nil)
	if coord.Stats().Failovers == before {
		t.Fatal("no failover away from the restarted node")
	}
	if ns := restarted.Stats(); ns.Hellos == 0 {
		t.Fatalf("the restarted node was never validated again: %+v", ns)
	}
}

// TestNodeRejectsBadRequests: a request the node cannot decode, one
// validated against another boot, one whose predicate names a term it
// was not sent, a verify request whose shipped gate could skip
// unsoundly, and a stray ftEnd or ftTau in a request's place are each
// answered with an error frame naming this boot — never served, never
// a crash. All of them, then a good request, share one connection,
// each exchange ended with ftEnd: the good one is answered correctly.
func TestNodeRejectsBadRequests(t *testing.T) {
	c := newCluster(t, 2)
	node, addr := c.startNode("a", nil)
	term, err := toWireTerm(c.terms[1])
	if err != nil {
		t.Fatal(err)
	}
	pred := []wireCmp{{T: 0, Op: core.OpGt, C: 100}}
	good := filterReq{BootID: node.BootID(), IDs: c.targets()[:32], Terms: []wireTerm{term}, Pred: pred}
	verify := func(g core.GateSpec) []byte {
		return encodeMsg(nil, &verifyReq{BootID: node.BootID(), Items: []core.VerifyItem{{ID: 1, B: core.Bounds{Hi: 9}}}, Term: term, Gate: g})
	}
	agg := func(groups []core.GateGroup, opt []float64, places ...core.GateItem) []byte {
		return verify(core.GateSpec{K: 1, Groups: groups, Opt: opt, Items: places})
	}
	one := []core.GateGroup{{Key: 5, N: 1}}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(typ byte, payload []byte) (byte, []byte, error) {
		if _, err := WriteFrame(conn, typ, payload); err != nil {
			return 0, nil, err
		}
		typ, payload, _, err := ReadFrame(conn, 0)
		if err == nil {
			_, err = WriteFrame(conn, ftEnd, nil)
		}
		return typ, payload, err
	}
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
		want    string
	}{
		{"trailing byte", ftFilter, append(encodeMsg(nil, &good), 0), "trailing"},
		{"other boot", ftFilter, encodeMsg(nil, &filterReq{BootID: "feed", IDs: good.IDs, Terms: good.Terms}), "validated against boot"},
		{"unsent term", ftFilter, encodeMsg(nil, &filterReq{BootID: good.BootID, IDs: good.IDs, Terms: good.Terms, Pred: []wireCmp{{T: 1}}}), "term T1 of 1"},
		{"gate k 0", ftVerify, verify(core.GateSpec{}), "gate k 0"},
		{"gate NaN entry", ftVerify, verify(core.GateSpec{K: 1, Best: []core.Scored{{ID: 3, Score: math.NaN()}}}), "NaN value"},
		{"gate group out of range", ftVerify, agg(one, []float64{3}, core.GateItem{G: 1}), "group 1 of 1"},
		{"gate member out of range", ftVerify, agg(one, []float64{3, 4}, core.GateItem{M: 1}), "member 1 outside"},
		{"gate group past members", ftVerify, agg([]core.GateGroup{{N: 3}}, []float64{3, 4}, core.GateItem{}), "members [0, +3) of 2"},
		{"gate item count", ftVerify, agg(one, []float64{3}, core.GateItem{}, core.GateItem{}), "places 2 items of 1"},
		{"gate NaN value", ftVerify, agg(one, []float64{math.NaN()}, core.GateItem{}), "NaN"},
		{"stray end", ftEnd, nil, "unknown request frame"},
		{"stray push", ftTau, encodeMsg(nil, &tauPush{ID: 1, Score: 2}), "unknown request frame"},
	} {
		typ, payload, err := exchange(tc.typ, tc.payload)
		if err == nil && typ != ftError {
			err = fmt.Errorf("frame type 0x%02x served", typ)
		} else if err == nil {
			err = remoteErr(payload)
		}
		var re *errRemote
		if !errors.As(err, &re) || !strings.Contains(re.msg, tc.want) || re.bootID != node.BootID() {
			t.Fatalf("%s: err = %v, want a remote error containing %q from boot %s", tc.name, err, tc.want, node.BootID())
		}
	}

	typ, payload, err := exchange(ftFilter, encodeMsg(nil, &good))
	var res filterRes
	if err == nil && typ != ftFilterRes {
		err = fmt.Errorf("frame type 0x%02x answered the good request", typ)
	} else if err == nil {
		err = decodeMsg(payload, &res)
	}
	if err != nil {
		t.Fatalf("good request after the bad ones: %v", err)
	}
	kept, _, err := core.Filter(context.Background(), c.env, good.IDs, c.terms[1:], fromWirePred(pred))
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i, k := range res.Keep {
		if k {
			got = append(got, good.IDs[i])
		}
	}
	if len(res.Keep) != len(good.IDs) || !reflect.DeepEqual(got, kept) {
		t.Fatalf("good request kept %v of %d decisions, the local engine keeps %v", got, len(res.Keep), kept)
	}
}

// TestVerifyStreamSurvivesPushFlood: a client that pushes τ while it
// reads a verify stream, and again after the terminal frame, always
// reads the terminal frame, and its connection then serves a bounds
// request correctly: the node reads late pushes up to the client's
// ftEnd. A node that closed with pushes unread would make the kernel
// reset the connection, and one that stopped at the terminal frame or
// read on past ftEnd would take a late push for the next request;
// either fails the bounds request.
func TestVerifyStreamSurvivesPushFlood(t *testing.T) {
	c := newCluster(t, 2)
	node, addr := c.startNode("a", nil)
	term, err := toWireTerm(c.terms[1])
	if err != nil {
		t.Fatal(err)
	}
	// 256 items over 64 masks stream many score frames; k = all skips
	// none of them.
	ids := c.targets()[:64]
	var items []core.VerifyItem
	for i := range 256 {
		items = append(items, core.VerifyItem{ID: ids[i%64], B: core.Bounds{Hi: 1 << 20}})
	}
	req := encodeMsg(nil, &verifyReq{BootID: node.BootID(), Items: items, Term: term, Gate: core.GateSpec{K: len(items)}})
	asked := ids[:16]
	bounds := encodeMsg(nil, &boundsReq{BootID: node.BootID(), IDs: asked, Term: term})
	var pushes bytes.Buffer
	for range 64 {
		if _, err := WriteFrame(&pushes, ftTau, encodeMsg(nil, &tauPush{ID: math.MaxInt64})); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 200 {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteFrame(conn, ftVerify, req); err == nil {
			_, err = conn.Write(pushes.Bytes())
		}
		if err != nil {
			t.Fatal(err)
		}
		scores := make(map[int64]int64)
		var typ byte
		for err == nil && typ != ftVerifyRes {
			var p []byte
			if typ, p, _, err = ReadFrame(conn, 0); err == nil && typ == ftScores {
				var chunk scoreChunk
				err = decodeMsg(p, &chunk)
				for _, sc := range chunk {
					scores[items[sc.Idx].ID] = sc.Score
				}
			} else if err == nil && typ != ftVerifyRes {
				err = fmt.Errorf("frame type 0x%02x in the stream", typ)
			}
		}
		if err != nil {
			t.Fatalf("exchange %d: %v before the terminal frame", i, err)
		}
		var res boundsRes
		if _, err = conn.Write(pushes.Bytes()); err == nil {
			_, err = WriteFrame(conn, ftEnd, nil)
		}
		if err == nil {
			_, err = WriteFrame(conn, ftBounds, bounds)
		}
		if err == nil {
			_, err = readMsg(conn, ftBoundsRes, 0, &res)
		}
		if err == nil {
			_, err = WriteFrame(conn, ftEnd, nil)
		}
		conn.Close()
		if err != nil || len(res.Cands) != len(asked) {
			t.Fatalf("exchange %d: bounds after the flood: %d answers, err %v", i, len(res.Cands), err)
		}
		for j, cb := range res.Cands {
			if s, ok := scores[asked[j]]; cb.ID != asked[j] || !ok || s < cb.B.Lo || s > cb.B.Hi {
				t.Fatalf("exchange %d: bounds %+v for mask %d, streamed score %d (%v)", i, cb, asked[j], s, ok)
			}
		}
	}
	if ns := node.Stats(); ns.Errors != 0 {
		t.Fatalf("the node counted %d errors: %+v", ns.Errors, ns)
	}
}

// TestPoolBounds: concurrent clients run 200 queries over replicated
// routes, first without hedging, then hedging after a millisecond. The
// coordinator keeps every cleanly ended connection, so each node's
// connections are bounded by the clients' peak of concurrent exchanges
// at it, not by the queries, and so are the dials, past the hedged
// losers' and the retries' replacements. Coordinator.Close closes the
// kept connections and keeps none returned after it, and once the
// nodes close the goroutine count is back at its baseline.
func TestPoolBounds(t *testing.T) {
	c := newCluster(t, 2)
	base := runtime.NumGoroutine()
	a, addrA := c.startNode("a", nil)
	b, addrB := c.startNode("b", nil)
	nodes := []*Node{a, b}
	addrs, routes := map[string]string{"a": addrA, "b": addrB}, [][]string{{"a", "b"}, {"b", "a"}}
	ctx := context.Background()
	targets, groups := c.targets(), c.cat.GroupByImage(nil)
	pred := core.Cmp{T: 0, Op: core.OpGt, C: 20}
	queries := func(coord *Coordinator, clients int) {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := cl; i < 200; i += clients {
					var err error
					switch i % 3 {
					case 0:
						_, _, err = core.FilterOn(ctx, coord.Stages(nil), targets, c.terms, pred)
					case 1:
						_, _, err = core.TopKOn(ctx, coord.Stages(nil), targets, c.terms, 0, 10, core.Order(i%2))
					default:
						_, _, err = core.AggTopKOn(ctx, coord.Stages(nil), groups, c.terms, 0, core.Mean, 10, core.Desc)
					}
					if err != nil {
						errs <- fmt.Errorf("query %d: %w", i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	conns := func(n *Node) int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.conns)
	}
	closed := func(coord *Coordinator) {
		coord.Close()
		for _, n := range nodes {
			waitFor(t, fmt.Sprintf("node %s with no connection", n.name), func() bool { return conns(n) == 0 })
		}
	}

	// Without hedging a client keeps one exchange in flight at a node,
	// its own shard's, and no connection is closed.
	const clients = 8
	plain := c.coordinator(addrs, routes, CoordOptions{HedgeAfter: -1})
	queries(plain, clients)
	if st := plain.Stats(); st.Dials > int64(len(nodes)*clients) {
		t.Fatalf("%d dials for %d requests from %d clients: kept connections were lost", st.Dials, st.Requests, clients)
	}
	for _, n := range nodes {
		if k := conns(n); k > clients {
			t.Fatalf("node %s holds %d connections from %d clients", n.name, k, clients)
		}
	}
	closed(plain)

	// Hedging, a client keeps at most two, its own shard's and a hedge
	// of the other's, and a hedged loser closes its connection.
	const hedgers, peak = 4, 2 * 4
	hedged := c.coordinator(addrs, routes, CoordOptions{HedgeAfter: time.Millisecond})
	queries(hedged, hedgers)
	for _, n := range nodes {
		waitFor(t, fmt.Sprintf("node %s at most %d connections", n.name, peak), func() bool { return conns(n) <= peak })
	}
	if st := hedged.Stats(); st.Dials > st.Hedges+st.Retries+int64(len(nodes)*peak) {
		t.Fatalf("%d dials for %d requests (%d hedges, %d retries): kept connections were lost", st.Dials, st.Requests, st.Hedges, st.Retries)
	}
	closed(hedged)

	kept, peer := net.Pipe()
	hedged.put(NodeSpec{Name: "a"}, kept)
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("a connection returned after Close was kept: read err %v", err)
	}
	for _, n := range nodes {
		n.Close()
	}
	waitFor(t, fmt.Sprintf("goroutines back at %d", base), func() bool { return runtime.NumGoroutine() <= base })
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDistRankingTies is the distributed axis of the ranking-ties
// oracle: terms whose scores mostly tie, groups striped across both
// shards plus one holding every mask, both orders, all four
// aggregates and k in {1, 3, all}, on plain and on replicated routes
// that hedge after a millisecond (so hedged attempts re-verify members
// that already landed). Every answer equals the local engine's.
func TestDistRankingTies(t *testing.T) {
	c := newCluster(t, 2)
	_, addrA := c.startNode("a", nil)
	_, addrB := c.startNode("b", nil)
	full := core.Rect{X1: c.spec.W, Y1: c.spec.H}
	small := core.Rect{X0: 5, Y0: 5, X1: 7, Y1: 7}
	terms := []core.CPTerm{
		{Name: "small", Region: core.FixedRegion(small), Range: core.ValueRange{Lo: 0.3, Hi: 1},
			Spec: core.RegionSpec{Kind: core.RegionRect, Rect: small}},
		{Name: "peak", Region: core.FixedRegion(full), Range: core.ValueRange{Lo: 0.99, Hi: 1},
			Spec: core.RegionSpec{Kind: core.RegionRect, Rect: full}},
	}
	targets := c.targets()
	const stripes = 48
	groups := make([]core.Group, stripes, stripes+1)
	for i, id := range targets {
		groups[i%stripes].Key = int64(stripes - i%stripes) // keys against id order
		groups[i%stripes].IDs = append(groups[i%stripes].IDs, id)
	}
	groups = append(groups, core.Group{Key: 0, IDs: targets})
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		routes [][]string
		opts   CoordOptions
	}{
		{"two nodes", [][]string{{"a"}, {"b"}}, CoordOptions{}},
		{"replicated", [][]string{{"a", "b"}, {"b", "a"}}, CoordOptions{HedgeAfter: time.Millisecond}},
	} {
		coord := c.coordinator(map[string]string{"a": addrA, "b": addrB}, tc.routes, tc.opts)
		loaded := 0
		for score := range terms {
			hist := map[float64]int{}
			all, _, err := core.TopK(ctx, c.env, targets, terms, core.Term(score), 0, core.Desc)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range all {
				hist[s.Score]++
			}
			if slices.Max(slices.Collect(maps.Values(hist))) < len(targets)/3 {
				t.Fatalf("term %s is not tie-heavy: %v", terms[score].Name, hist)
			}
			for _, ord := range []core.Order{core.Desc, core.Asc} {
				for _, k := range []int{1, 3, 0} {
					what := fmt.Sprintf("%s %s %v k=%d", tc.name, terms[score].Name, ord, k)
					want, _, err := core.TopK(ctx, c.env, targets, terms, core.Term(score), k, ord)
					if err != nil {
						t.Fatal(err)
					}
					got, st, err := core.TopKOn(ctx, coord.Stages(nil), targets, terms, core.Term(score), k, ord)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s topk (err %v):\ngot:  %v\nwant: %v", what, err, got, want)
					}
					loaded += st.Loaded
					for _, agg := range []core.Agg{core.Mean, core.Sum, core.Min, core.Max} {
						want, _, err := core.AggTopK(ctx, c.env, groups, terms, core.Term(score), agg, k, ord)
						if err != nil {
							t.Fatal(err)
						}
						got, st, err := core.AggTopKOn(ctx, coord.Stages(nil), groups, terms, core.Term(score), agg, k, ord)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s agg %v (err %v):\ngot:  %v\nwant: %v", what, agg, err, got, want)
						}
						loaded += st.Loaded
					}
				}
			}
		}
		if loaded == 0 {
			t.Fatalf("%s: the nodes verified nothing", tc.name)
		}
	}
}

// TestRemoteShardStats: the coordinator's folded remote read stats
// must equal the node's own cumulative per-shard counters exactly —
// the facade sums them into DB.Stats() like local shard stats.
func TestRemoteShardStats(t *testing.T) {
	c := newCluster(t, 2)
	node, addr := c.startNode("a", nil)
	coord := c.coordinator(
		map[string]string{"a": addr},
		[][]string{{"a"}, {"a"}},
		CoordOptions{HedgeAfter: -1, Retries: -1},
	)
	ctx := context.Background()
	for range 3 {
		if _, _, err := core.TopKOn(ctx, coord.Stages(nil), c.targets(), c.terms, 0, 5, core.Desc); err != nil {
			t.Fatal(err)
		}
	}
	nodeStats := node.st.ShardStats()
	remote := coord.RemoteShardStats()
	if len(remote) != len(nodeStats) {
		t.Fatalf("remote tracks %d shards, node has %d", len(remote), len(nodeStats))
	}
	for s := range nodeStats {
		if remote[s] != nodeStats[s] {
			t.Fatalf("shard %d: remote %+v != node %+v", s, remote[s], nodeStats[s])
		}
	}
	if remote[0].MasksLoaded+remote[1].MasksLoaded == 0 {
		t.Fatal("remote stats saw no mask loads at all")
	}
}

// TestProbeNodes exercises the msinspect health probe against one live
// and one dead node.
func TestProbeNodes(t *testing.T) {
	c := newCluster(t, 2)
	_, addr := c.startNode("a", nil)
	topo := &Topology{
		Nodes: []NodeSpec{{Name: "a", Addr: addr}, {Name: "b", Addr: "127.0.0.1:1"}},
		Shards: []ShardRoute{
			{Shard: 0, Nodes: []string{"a", "b"}},
			{Shard: 1, Nodes: []string{"b", "a"}},
		},
	}
	hs := ProbeNodes(context.Background(), topo, 300*time.Millisecond)
	if len(hs) != 2 {
		t.Fatalf("probed %d nodes, want 2", len(hs))
	}
	if hs[0].Err != nil || hs[0].Res == nil || hs[0].Res.Shards != 2 || hs[0].Res.Wire != WireVersion {
		t.Fatalf("live node: %+v err=%v", hs[0].Res, hs[0].Err)
	}
	if hs[1].Err == nil {
		t.Fatal("dead node probe did not error")
	}
}

// TestWirePred covers the predicate serialization boundary.
func TestWirePred(t *testing.T) {
	if cs, err := toWirePred(nil); err != nil || cs != nil {
		t.Fatalf("nil pred: %v, %v", cs, err)
	}
	cs, err := toWirePred(core.And{core.Cmp{T: 1, Op: core.OpGe, C: 7}, core.And{core.Cmp{T: 0, Op: core.OpLt, C: 3}}})
	if err != nil || len(cs) != 2 {
		t.Fatalf("nested and: %v, %v", cs, err)
	}
	p := fromWirePred(cs)
	if !p.Eval([]int64{2, 7}) || p.Eval([]int64{2, 6}) || p.Eval([]int64{3, 7}) {
		t.Fatal("rebuilt predicate evaluates wrong")
	}
	if _, err := toWirePred(notAPred{}); !errors.Is(err, errNotDistributable) {
		t.Fatalf("foreign pred err = %v", err)
	}
	bare := []core.CPTerm{{Name: "x", Region: core.FixedRegion(core.Rect{X1: 1, Y1: 1}), Range: core.ValueRange{Lo: 0, Hi: 1}}}
	if _, err := toWireTerms(bare); !errors.Is(err, errNotDistributable) {
		t.Fatalf("spec-less term err = %v", err)
	}
}

type notAPred struct{}

func (notAPred) Eval([]int64) bool                 { return true }
func (notAPred) FromBounds([]core.Bounds) core.Tri { return core.Unknown }
func (notAPred) String() string                    { return "not-a-pred" }
