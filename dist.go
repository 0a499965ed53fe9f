package masksearch

import (
	"fmt"

	"masksearch/internal/dist"
)

// Distributed execution. A DB opened with Options.TopologyFile becomes
// a coordinator: metadata planning, target selection and an
// aggregation's static pruning stay local (the catalog is cheap), while
// the mask-touching stages — filter decisions, candidate bounds, exact
// verification, and a top-k's whole per-shard routine — ship to the
// shard nodes named in the topology.
// Results are byte-identical to local execution unless the query opts
// into degraded results (WithDegradedResults) AND a shard actually
// went missing, in which case the Result is flagged.

// DistOptions tunes the coordinator: hedging delay, retry passes, dial
// timeout. The zero value hedges (adaptively at the observed p95 for
// filter and bounds requests) and retries each shard's route once.
type DistOptions = dist.CoordOptions

// DistStats snapshots the coordinator's counters: requests, hedges,
// retries, failovers, τ pushes, degraded queries, protocol bytes and
// connections dialed.
type DistStats = dist.CoordStats

// ErrShardUnavailable is returned (wrapped) by queries on a
// distributed DB when some shard's every route — primary, replicas and
// retry passes — failed and the query did not opt into degraded
// results. Servers should surface it as 503, not 500: the query was
// valid, the cluster was not.
var ErrShardUnavailable = dist.ErrShardUnavailable

// openCoordinator wires a freshly opened DB to its remote shard nodes.
// Distributed opens reject a non-empty WAL tail: tail masks live only
// in this process's memory and the remote nodes (which open their own
// copy of the dataset) cannot see them, so serving would silently drop
// them from every answer. Compact the dataset first.
func (db *DB) openCoordinator(path string) error {
	if tail := db.st.IngestStats().TailMasks; tail > 0 {
		return fmt.Errorf("masksearch: cannot open %s distributed: %d WAL-tail mask(s) are not visible to remote nodes; run Compact (or msinspect -compact) first", db.dir, tail)
	}
	topo, err := dist.LoadTopology(path)
	if err != nil {
		return err
	}
	base := db.st.Base()
	expect := dist.Expect{
		NumMasks: db.st.NumMasks(), MaskW: db.st.MaskW(), MaskH: db.st.MaskH(),
		Shards: base.NumShards(), Codec: db.st.Codec(), GenVersion: db.st.GenVersion(),
	}
	coord, err := dist.NewCoordinator(topo, expect, base.ShardOf, db.opts.Dist)
	if err != nil {
		return err
	}
	db.coord = coord
	return nil
}

// Distributed reports whether this DB executes through remote shard
// nodes (Options.TopologyFile was set).
func (db *DB) Distributed() bool { return db.coord != nil }

// DistStats snapshots the coordinator's counters; the zero value on a
// local DB.
func (db *DB) DistStats() DistStats {
	if db.coord == nil {
		return DistStats{}
	}
	return db.coord.Stats()
}

// RemoteShardStats reports the per-shard read work remote nodes did on
// this DB's behalf, folded exactly from their cumulative counters (nil
// on a local DB). DB.Stats and DB.ShardReadStats already include these.
func (db *DB) RemoteShardStats() []ReadStats {
	if db.coord == nil {
		return nil
	}
	return db.coord.RemoteShardStats()
}
