package masksearch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"masksearch/internal/core"
	"masksearch/internal/dist"
	"masksearch/internal/store"
)

// testNode is one in-process shard node serving the shared dataset dir
// over loopback TCP, as cmd/msshard would.
type testNode struct {
	node *dist.Node
	addr string
}

// startTestNode opens its own store over dir (so its read counters are
// its own, as a real remote process's would be) and serves it.
func startTestNode(t *testing.T, dir, name string, served []int) *testNode {
	t.Helper()
	st, cat, err := store.OpenAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Config{CellW: 8, CellH: 8, Edges: core.DefaultEdges(8)}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	idx := core.NewMemoryIndex(cfg)
	n := dist.NewNode(name, st, cat, idx, 0, served)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve(lis)
	t.Cleanup(func() {
		n.Close()
		st.Close()
	})
	return &testNode{node: n, addr: lis.Addr().String()}
}

// writeTopology materializes a topology file routing each shard to the
// named nodes (first = primary).
func writeTopology(t *testing.T, nodes map[string]*testNode, routes [][]string) string {
	t.Helper()
	topo := dist.Topology{}
	for name, n := range nodes {
		topo.Nodes = append(topo.Nodes, dist.NodeSpec{Name: name, Addr: n.addr})
	}
	for s, names := range routes {
		topo.Shards = append(topo.Shards, dist.ShardRoute{Shard: s, Nodes: names})
	}
	data, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nodes.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameResult(a, b *Result) bool {
	return a.Kind == b.Kind && reflect.DeepEqual(a.IDs, b.IDs) && reflect.DeepEqual(a.Ranked, b.Ranked)
}

// TestDistributedQueryEquivalence is the facade half of the PR's
// acceptance property: every query kind through a topology-backed DB —
// single node, one node per shard, replicated with aggressive hedging,
// τ exchange disabled — returns results byte-identical to the same
// queries on a plain local DB over the same dataset, through Query,
// QueryBatch and Rows alike.
func TestDistributedQueryEquivalence(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ref, err := OpenWith(dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]*Result, len(shardEquivQueries))
	for i, q := range shardEquivQueries {
		if want[i], err = ref.Query(ctx, q); err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}

	a := startTestNode(t, dir, "a", nil)
	b := startTestNode(t, dir, "b", nil)
	nodes := map[string]*testNode{"a": a, "b": b}

	cases := []struct {
		name   string
		routes [][]string
		opts   DistOptions
	}{
		{"one node", [][]string{{"a"}, {"a"}}, DistOptions{}},
		{"one per shard", [][]string{{"a"}, {"b"}}, DistOptions{}},
		{"replicated hedged", [][]string{{"a", "b"}, {"b", "a"}}, DistOptions{HedgeAfter: time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := OpenWith(dir, Options{TopologyFile: writeTopology(t, nodes, tc.routes), Dist: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if !db.Distributed() {
				t.Fatal("Distributed() = false on a topology-backed DB")
			}
			for i, q := range shardEquivQueries {
				got, err := db.Query(ctx, q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !sameResult(got, want[i]) {
					t.Fatalf("query %d diverged from local:\ngot  %+v\nwant %+v", i, got, want[i])
				}
				if got.Degraded || got.MissingShards != nil {
					t.Fatalf("query %d flagged degraded with every node up: %+v", i, got)
				}
			}
			batch, err := db.QueryBatch(ctx, shardEquivQueries)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range batch {
				if !sameResult(got, want[i]) {
					t.Fatalf("batch query %d diverged from local:\ngot  %+v\nwant %+v", i, got, want[i])
				}
			}
			// Rows must stream the same ids the local filter returns.
			var ids []int64
			for row, err := range db.Rows(ctx, shardEquivQueries[0]) {
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, row.ID)
			}
			if !reflect.DeepEqual(ids, want[0].IDs) {
				t.Fatalf("Rows diverged from local filter: got %v want %v", ids, want[0].IDs)
			}
			if ds := db.DistStats(); ds.Requests == 0 {
				t.Fatal("DistStats().Requests = 0 after distributed queries")
			}
		})
	}
}

// TestDistributedFailover kills a replica-backed primary mid-run: every
// query keeps succeeding byte-identically through the replica, and the
// coordinator records the failover.
func TestDistributedFailover(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := OpenWith(dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	a := startTestNode(t, dir, "a", nil)
	b := startTestNode(t, dir, "b", nil)
	nodes := map[string]*testNode{"a": a, "b": b}
	db, err := OpenWith(dir, Options{
		TopologyFile: writeTopology(t, nodes, [][]string{{"a", "b"}, {"a", "b"}}),
		Dist:         DistOptions{HedgeAfter: -1, DialTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	check := func(stage string) {
		t.Helper()
		for i, q := range shardEquivQueries {
			got, err := db.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s query %d: %v", stage, i, err)
			}
			want, err := ref.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s query %d diverged:\ngot  %+v\nwant %+v", stage, i, got, want)
			}
		}
	}
	check("before kill")
	if err := a.node.Close(); err != nil {
		t.Fatal(err)
	}
	check("after kill")
	if ds := db.DistStats(); ds.Failovers == 0 {
		t.Fatalf("no failover recorded after primary died: %+v", ds)
	}
}

// TestDistributedDegraded pins the partial-result policy at the facade:
// a shard with no live route fails the query with ErrShardUnavailable
// by default (fail-closed), and only WithDegradedResults turns that
// into a flagged partial answer.
func TestDistributedDegraded(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := startTestNode(t, dir, "a", nil)
	b := startTestNode(t, dir, "b", nil)
	nodes := map[string]*testNode{"a": a, "b": b}
	db, err := OpenWith(dir, Options{
		TopologyFile: writeTopology(t, nodes, [][]string{{"a"}, {"b"}}),
		Dist:         DistOptions{Retries: -1, DialTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := a.node.Close(); err != nil {
		t.Fatal(err)
	}
	q := shardEquivQueries[0]
	if _, err := db.Query(ctx, q); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("query with a dead unreplicated shard returned %v, want ErrShardUnavailable", err)
	}
	res, err := db.Query(ctx, q, WithDegradedResults())
	if err != nil {
		t.Fatalf("degraded-ok query failed: %v", err)
	}
	if !res.Degraded || !reflect.DeepEqual(res.MissingShards, []int{0}) {
		t.Fatalf("degraded answer not flagged: Degraded=%v MissingShards=%v", res.Degraded, res.MissingShards)
	}
	if ds := db.DistStats(); ds.Degraded == 0 {
		t.Fatalf("Degraded counter not advanced: %+v", ds)
	}
	// A cancelled context is a caller decision, never a degradation.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Query(cancelled, q, WithDegradedResults()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled degraded-ok query returned %v, want context.Canceled", err)
	}
}

// TestDistributedRejections pins the operations a distributed DB
// refuses: Append (the WAL tail is invisible to remote nodes),
// WithEagerBounds (nodes own the bounds stage), and opening a topology
// over a dataset with a pending WAL tail.
func TestDistributedRejections(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := startTestNode(t, dir, "a", nil)
	nodes := map[string]*testNode{"a": a}
	topoPath := writeTopology(t, nodes, [][]string{{"a"}, {"a"}})
	db, err := OpenWith(dir, Options{TopologyFile: topoPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Append(ctx, []AppendMask{{Pixels: make([]byte, 32*32)}}); err == nil ||
		!strings.Contains(err.Error(), "distributed") {
		t.Fatalf("Append on a distributed DB: %v, want a distributed-DB rejection", err)
	}
	if _, err := db.Query(ctx, shardEquivQueries[0], WithEagerBounds()); err == nil ||
		!strings.Contains(err.Error(), "WithEagerBounds") {
		t.Fatalf("WithEagerBounds on a distributed DB: %v, want rejection", err)
	}

	// A dataset with a pending WAL tail must refuse to open distributed.
	tailDir := t.TempDir()
	if err := GenerateDataset(tailDir, TinyDataset()); err != nil {
		t.Fatal(err)
	}
	w, err := Open(tailDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := TinyDataset()
	if _, err := w.Append(ctx, []AppendMask{{Pixels: make([]byte, spec.W*spec.H)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(tailDir, Options{TopologyFile: topoPath}); err == nil ||
		!strings.Contains(err.Error(), "WAL-tail") {
		t.Fatalf("distributed open over a WAL tail: %v, want WAL-tail rejection", err)
	}
}

// TestCoordinatorIndexNotRead: a coordinator does not read the
// directory's chi.idx (the shard nodes own the index), so one a local
// open discards as malformed leaves the coordinator's open clean: its
// IndexStats name no file, no entries and no error, and its answers
// equal the local DB's.
func TestCoordinatorIndexNotRead(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte("MSCHIIDX"), make([]byte, 40)...)
	if err := os.WriteFile(filepath.Join(dir, store.IndexFileName), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	local, err := OpenWith(dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if st := local.Stats().Index; st.File != store.IndexFileName || st.FileError == "" {
		t.Fatalf("local open over the malformed file: %+v, want it discarded with an error", st)
	}
	a := startTestNode(t, dir, "a", nil)
	db, err := OpenWith(dir, Options{TopologyFile: writeTopology(t, map[string]*testNode{"a": a}, [][]string{{"a"}, {"a"}})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i, q := range shardEquivQueries {
		got, err := db.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("query %d: coordinator answer differs from local:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	st := db.Stats().Index
	if st.File != "" || st.FileError != "" || st.FileEntries != 0 || st.IndexedMasks != 0 || st.IndexBytes != 0 {
		t.Fatalf("coordinator index stats %+v, want no file, no entries and no error", st)
	}
}

// TestCoordinatorIndexFileUntouched: with PersistIndexOnClose, a
// coordinator's CheckpointIndex and Close leave a valid chi.idx
// byte-identical.
func TestCoordinatorIndexFileUntouched(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed, err := OpenWith(dir, Options{PersistIndexOnClose: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Query(ctx, shardEquivQueries[0]); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, store.IndexFileName)
	valid, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.ReadMemoryIndex(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() == 0 {
		t.Fatal("the seed session persisted no index entries")
	}

	a := startTestNode(t, dir, "a", nil)
	topo := writeTopology(t, map[string]*testNode{"a": a}, [][]string{{"a"}, {"a"}})
	coordinate := func(stage string) {
		t.Helper()
		db, err := OpenWith(dir, Options{TopologyFile: topo, PersistIndexOnClose: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range shardEquivQueries {
			if _, err := db.Query(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CheckpointIndex(); err != nil {
			t.Fatalf("%s: CheckpointIndex: %v", stage, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s: Close: %v", stage, err)
		}
	}
	unchanged := func(stage, path string, want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s changed (%d bytes, err %v), want its %d bytes as they were", stage, filepath.Base(path), len(got), err, len(want))
		}
	}

	coordinate("chi.idx")
	unchanged("chi.idx", idxPath, valid)
}

// TestEagerIndexRejectedWithTopology: EagerIndex builds an index a
// coordinator never holds, so OpenWith refuses the pair before opening
// anything, naming both options.
func TestEagerIndexRejectedWithTopology(t *testing.T) {
	_, err := OpenWith(t.TempDir(), Options{EagerIndex: true, TopologyFile: "topology.json"})
	if err == nil || !strings.Contains(err.Error(), "EagerIndex") || !strings.Contains(err.Error(), "TopologyFile") {
		t.Fatalf("OpenWith(EagerIndex, TopologyFile) = %v, want an error naming both options", err)
	}
}

// TestDistributedStatsAggregation is the ROADMAP follow-up regression:
// the read work remote nodes perform on the coordinator's behalf folds
// into DB.ReadStats / DB.ShardReadStats / DB.Stats exactly as local
// per-shard work does.
func TestDistributedStatsAggregation(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateShardedDatasetCodec(dir, TinyDataset(), 2, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := startTestNode(t, dir, "a", nil)
	nodes := map[string]*testNode{"a": a}
	db, err := OpenWith(dir, Options{TopologyFile: writeTopology(t, nodes, [][]string{{"a"}, {"a"}})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, q := range shardEquivQueries {
		if _, err := db.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	remote := db.RemoteShardStats()
	if len(remote) != 2 {
		t.Fatalf("RemoteShardStats returned %d entries, want 2", len(remote))
	}
	var remoteLoads int64
	for _, r := range remote {
		remoteLoads += r.MasksLoaded
	}
	if remoteLoads == 0 {
		t.Fatal("remote nodes loaded no masks — queries did not ship")
	}
	// The aggregate equals the per-shard sum, remote work included.
	per := db.ShardReadStats()
	var sum ReadStats
	for _, s := range per {
		sum.Add(s)
	}
	if got := db.ReadStats(); got != sum {
		t.Fatalf("aggregate ReadStats %+v != per-shard sum %+v", got, sum)
	}
	if got := db.ReadStats().MasksLoaded; got < remoteLoads {
		t.Fatalf("ReadStats.MasksLoaded = %d, want at least the %d remote loads", got, remoteLoads)
	}
	s := db.Stats()
	if s.Dist == nil || s.Dist.Requests == 0 {
		t.Fatalf("DBStats.Dist not populated on a distributed DB: %+v", s.Dist)
	}
	if s.Reads != db.ReadStats() {
		t.Fatalf("DBStats.Reads %+v != ReadStats() %+v", s.Reads, db.ReadStats())
	}
}
