package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/dist"
	"masksearch/internal/store"
)

// dist.scatter mix: 50 % top-k, 30 % filter, 20 % grouped MEAN.
const (
	distFilter = 0.3
	distTopK   = 0.5
)

// cluster is a coordinator DB over two in-process shard nodes on
// loopback TCP, each primary for one shard and replica for the other.
type cluster struct {
	db     *masksearch.DB
	nodes  []*dist.Node
	stores []store.MaskStore
	topo   string
}

func (c *cluster) close() error {
	var first error
	if c.db != nil {
		first = c.db.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	for _, st := range c.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	os.Remove(c.topo)
	return first
}

// startCluster starts both nodes the way cmd/msshard does — open the
// dataset, load the persisted chi.gob, serve every shard — writes the
// topology file and opens the coordinator through the facade with
// default DistOptions (τ exchange and adaptive hedging on).
func startCluster(dir string, warm *op) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	topo := dist.Topology{}
	names := []string{"a", "b"}
	for _, name := range names {
		st, cat, err := store.OpenAny(dir)
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, st)
		f, err := os.Open(filepath.Join(dir, store.IndexFileName))
		if err != nil {
			return nil, err
		}
		idx, err := core.ReadMemoryIndex(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n := dist.NewNode(name, st, cat, idx, 0, nil)
		c.nodes = append(c.nodes, n)
		go n.Serve(lis) // returns when close() closes the node
		topo.Nodes = append(topo.Nodes, dist.NodeSpec{Name: name, Addr: lis.Addr().String()})
	}
	topo.Shards = []dist.ShardRoute{
		{Shard: 0, Nodes: []string{"a", "b"}},
		{Shard: 1, Nodes: []string{"b", "a"}},
	}
	f, err := os.CreateTemp(filepath.Dir(dir), "topology-*.json")
	if err != nil {
		return nil, err
	}
	c.topo = f.Name()
	err = json.NewEncoder(f).Encode(topo)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		c.db, err = masksearch.OpenWith(dir, masksearch.Options{TopologyFile: c.topo})
	}
	if err == nil {
		// One query through both shards: nodes validate the dataset on
		// their first request, so this is the last step of getting ready.
		_, err = c.db.Query(context.Background(), warm.SQL)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// runDist is dist.scatter: one client, closed loop, through a
// coordinator over two shard nodes serving a 2-shard copy of
// wilds-sim. Every answer must equal a local DB's over the same
// directory.
func runDist(e *env) (*result, error) {
	ds := dataset{dir: "wilds-s2", spec: e.wilds(), shards: 2, index: true}
	res, dir, err := e.begin(ds)
	if err != nil {
		return nil, err
	}

	ops := newGen(e.seed, "dist", ds.spec).exploreOps(e.opBudget(400), distFilter, distTopK)
	hash := newOpHasher()
	hash.ops(ops)
	res.opHash = hash.sum()

	c, setup, err := setupCycles(e.setupBudget(), func() (*cluster, error) { return startCluster(dir, &ops[len(ops)-1]) }, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	res.setup = setup
	queryLoop(e, c.db, ops[len(ops)-len(ops)/20:], e.duration()/20, nil)

	rec := e.recorder()
	before, distBefore, remoteBefore := c.db.Stats(), c.db.DistStats(), remoteMasks(c.db)
	run := queryLoop(e, c.db, ops, e.duration(), rec)
	after, distAfter, remoteAfter := c.db.Stats(), c.db.DistStats(), remoteMasks(c.db)
	done := len(run.lat)
	res.lat, res.elapsed, res.attempted, res.failed = run.lat, run.elapsed, done, run.failed

	// Reference pass (invariant 13): the same ops on a local DB over
	// the same 2-shard directory, outside set-up and the timed phase.
	ref, err := masksearch.OpenWith(dir, masksearch.Options{})
	if err != nil {
		return nil, err
	}
	local := queryLoop(e, ref, ops[:done], 1<<62, nil)
	ref.Close()
	res.failed += local.failed + mismatches(run.digests, local.digests)

	if e.trace {
		res.spans = rec.snapshot()
		run.counts.fill(res.layer)
		storeCounts(res.layer, before, after, done)
		n := float64(max(done, 1))
		d := func(a, b int64) float64 { return float64(a-b) / n }
		res.layer["dist.requests"] = d(distAfter.Requests, distBefore.Requests)
		res.layer["dist.bytes_sent"] = d(distAfter.BytesSent, distBefore.BytesSent)
		res.layer["dist.bytes_recv"] = d(distAfter.BytesRecv, distBefore.BytesRecv)
		res.layer["dist.tau_sent"] = d(distAfter.TauSent, distBefore.TauSent)
		res.layer["dist.hedges"] = d(distAfter.Hedges, distBefore.Hedges)
		res.layer["dist.hedge_win_share"] = share(float64(distAfter.HedgeWins-distBefore.HedgeWins), float64(distAfter.Hedges-distBefore.Hedges))
		res.layer["dist.retries"] = d(distAfter.Retries, distBefore.Retries)
		res.layer["dist.failovers"] = d(distAfter.Failovers, distBefore.Failovers)
		res.layer["dist.remote_masks"] = d(remoteAfter, remoteBefore)
		res.layer["dist.overhead_ms"] = median(run.lat) - median(local.lat)
		if err := e.probeAndExplain(res, dir, ds.spec, ops[:done], run.counts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// remoteMasks is how many masks the shard nodes have loaded on this
// coordinator's behalf.
func remoteMasks(db *masksearch.DB) int64 {
	var n int64
	for _, r := range db.RemoteShardStats() {
		n += r.MasksLoaded
	}
	return n
}
