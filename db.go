package masksearch

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"path/filepath"
	"sync"
	"sync/atomic"

	"masksearch/internal/core"
	"masksearch/internal/dist"
	"masksearch/internal/store"
)

// ErrClosed is returned by every operation started after DB.Close. A
// query that was already executing when Close was called is unaffected:
// Close drains in-flight work before tearing the store down, so
// concurrent callers never observe a read against a closed file.
var ErrClosed = errors.New("masksearch: database is closed")

// Sentinel values of Options.CacheBytes, documented here once: the
// store's shared LRU mask cache is either off, bounded by a positive
// byte budget, or unbounded.
const (
	// CacheDisabled turns the mask cache off (the default).
	CacheDisabled int64 = 0
	// CacheUnbounded caches every loaded mask without a byte budget.
	CacheUnbounded int64 = -1
)

// Options configures Open.
type Options struct {
	// EagerIndex builds the full CHI index at open time ("vanilla
	// MaskSearch"). When false the index starts from whatever was
	// persisted (if anything) and grows incrementally as queries
	// verify masks (§3.6).
	EagerIndex bool
	// PersistIndexOnClose saves the index to <db>/chi.gob on Close so
	// later sessions reuse it.
	PersistIndexOnClose bool
	// IndexConfig overrides the CHI granularity. The zero value picks
	// a default scaled to the mask size (cells of W/4, 10 value
	// edges). A persisted index with a different granularity is
	// discarded.
	IndexConfig core.Config
	// Workers sizes the engine's worker pool for query execution and
	// eager index construction: 0 (the default) uses
	// runtime.GOMAXPROCS(0), 1 forces the sequential engine, and any
	// n > 1 uses n workers. Query results are identical under every
	// setting; only throughput (and the load counts of the Top-K
	// verification stage) vary.
	Workers int
	// CacheBytes budgets the store's LRU mask cache: the ids of masks
	// loaded for verification stay resident (up to this many bytes of
	// stored mask data) and later loads of them — in particular by the
	// overlapping queries of a QueryBatch — count as cache hits, charged
	// no disk traffic and, under a Throttle, no simulated-disk wait.
	// The cache keeps no mask of its own: every load still hands out
	// its own view of the mapped file. The legal values
	// are CacheDisabled (0, the default), CacheUnbounded (-1), or a
	// positive byte budget; OpenWith rejects anything else. Results
	// are identical under every setting; only the store's ReadStats
	// change.
	CacheBytes int64
	// PlanCacheEntries bounds the DB's LRU cache of compiled plan
	// templates, which lets repeated raw Query calls of the same
	// statement text skip parse+plan exactly like an explicit
	// Prepare. 0 (the default) uses DefaultPlanCacheEntries; -1
	// disables the cache; OpenWith rejects anything below -1.
	PlanCacheEntries int
	// TopologyFile, when set, opens the DB as a distributed
	// coordinator: a JSON cluster topology (see internal/dist) names
	// the msshard nodes serving each storage shard, and every
	// mask-touching query stage is scattered to them instead of
	// reading local mask data. Results are byte-identical to local
	// execution unless a query opts into degraded results and a shard
	// is missing. A distributed DB rejects Append (remote nodes cannot
	// see this process's WAL tail) and refuses to open over a dataset
	// with uncompacted WAL masks.
	TopologyFile string
	// Dist tunes the distributed coordinator (hedging, retries, dial
	// timeout); ignored without TopologyFile.
	Dist DistOptions
}

// DefaultPlanCacheEntries is the plan-template cache capacity used
// when Options.PlanCacheEntries is 0.
const DefaultPlanCacheEntries = 128

// validate rejects option values the engine would otherwise
// misinterpret silently (a negative worker count means GOMAXPROCS to
// the core scheduler, which is surprising enough to be an error at
// the facade).
func (o Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("masksearch: Options.Workers must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", o.Workers)
	}
	if o.CacheBytes < CacheUnbounded {
		return fmt.Errorf("masksearch: Options.CacheBytes must be CacheDisabled (0), CacheUnbounded (-1) or a positive budget, got %d", o.CacheBytes)
	}
	if o.PlanCacheEntries < -1 {
		return fmt.Errorf("masksearch: Options.PlanCacheEntries must be >= -1 (0 = default %d, -1 = off), got %d", DefaultPlanCacheEntries, o.PlanCacheEntries)
	}
	return nil
}

// exec translates the Workers option into a core execution strategy.
func (o Options) exec() core.Exec { return core.ExecFor(o.Workers) }

// IndexStats summarizes the state of a DB's CHI index.
type IndexStats struct {
	// IndexedMasks is how many masks currently have a CHI.
	IndexedMasks int
	// IndexBytes is the in-memory index footprint.
	IndexBytes int64
	// DataBytes is the size of the stored mask data.
	DataBytes int64
	// Fraction is IndexBytes/DataBytes.
	Fraction float64
}

// DB is an opened mask database. The backing store is either a
// single segment or a sharded directory (see GenerateShardedDataset);
// Open detects the layout from the manifest, so queries, batching and
// caching work identically over both.
type DB struct {
	dir   string
	opts  Options
	st    store.MaskStore
	ws    *store.WALStore // the ingestion wrapper; st == ws
	cat   *store.Catalog
	idx   *core.MemoryIndex
	plans *planCache
	// coord scatter-gathers query stages to remote shard nodes when
	// Options.TopologyFile is set; nil for a local DB.
	coord *dist.Coordinator

	dirty atomic.Bool // index changed since open

	// ckptmu serializes index checkpoints so two concurrent
	// CheckpointIndex calls never interleave temp-file publishes.
	ckptmu sync.Mutex

	// closemu serializes Close against in-flight operations: every
	// store-touching entry point holds the read side for its whole
	// execution, and Close takes the write side — so it blocks until
	// running queries drain, then flips closed, and every later
	// operation fails fast with ErrClosed instead of racing the store
	// teardown.
	closemu sync.RWMutex
	closed  bool
	// lent counts masks DB.LoadMask handed out that DB.ReleaseMask has
	// not seen back; while it is non-zero Close leaves the store's
	// pixel files open and mapped (see LoadMask).
	lent atomic.Int64
}

// beginOp admits one store-touching operation, failing with ErrClosed
// once Close has run. The caller must pair it with endOp. Operations
// hold only the read side, so any number run concurrently; Close's
// write lock waits for all of them.
func (db *DB) beginOp() error {
	db.closemu.RLock()
	if db.closed {
		db.closemu.RUnlock()
		return ErrClosed
	}
	return nil
}

func (db *DB) endOp() { db.closemu.RUnlock() }

// Open opens a mask database with default options: lazy incremental
// indexing, persisted across sessions.
func Open(dir string) (*DB, error) {
	return OpenWith(dir, Options{PersistIndexOnClose: true})
}

// OpenWith opens a mask database directory created by GenerateDataset
// or GenerateShardedDataset (the layout is detected from the
// manifest). Options are validated before anything is opened.
//
// The database opens write-capable: a WAL directory is created (or
// recovered — torn tails truncated, the durable prefix replayed) and
// DB.Append ingests new masks online.
func OpenWith(dir string, opts Options) (*DB, error) {
	return openWith(dir, opts, store.DirFS())
}

// openWith is OpenWith with an injectable filesystem for the
// ingestion path; fault-injection tests pass a store.FaultFS.
func openWith(dir string, opts Options, fsys store.FS) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st, cat, err := store.OpenIngest(fsys, dir)
	if err != nil {
		return nil, err
	}
	cfg := opts.IndexConfig
	if cfg.CellW == 0 && cfg.CellH == 0 && len(cfg.Edges) == 0 {
		cfg = core.Config{
			CellW: max(2, st.MaskW()/4), CellH: max(2, st.MaskH()/4),
			Edges: core.DefaultEdges(10),
		}
	}
	cfg, err = cfg.Normalize()
	if err != nil {
		st.Close()
		return nil, err
	}
	st.SetCacheBytes(opts.CacheBytes)
	planEntries := opts.PlanCacheEntries
	if planEntries == 0 {
		planEntries = DefaultPlanCacheEntries
	}
	db := &DB{dir: dir, opts: opts, st: st, ws: st, cat: cat, plans: newPlanCache(planEntries)}
	db.idx = core.LoadIndex(filepath.Join(dir, store.IndexFileName), cfg)
	if opts.EagerIndex {
		// Eager ("vanilla MaskSearch") construction fans mask loads
		// and CHI builds across the worker pool.
		built, err := core.IndexAll(context.Background(), st, db.idx, cat.MaskIDs(nil), opts.exec())
		if err != nil {
			st.Close()
			return nil, err
		}
		if built > 0 {
			db.dirty.Store(true)
		}
	} else if ids := st.ReplayedIDs(); len(ids) > 0 {
		// Masks replayed from the WAL are observed into the index like
		// freshly appended ones, so recovery leaves the index in the
		// same state a crash-free run would have.
		built, err := core.IndexAll(context.Background(), st, db.idx, ids, opts.exec())
		if err != nil {
			st.Close()
			return nil, err
		}
		if built > 0 {
			db.dirty.Store(true)
		}
	}
	if opts.TopologyFile != "" {
		if err := db.openCoordinator(opts.TopologyFile); err != nil {
			st.Close()
			return nil, err
		}
	}
	return db, nil
}

// Close persists the index if configured and releases the store. It
// first drains: queries that are already executing run to completion,
// while operations started after Close begins return ErrClosed. Close
// is idempotent — repeated calls return nil without re-tearing down.
func (db *DB) Close() error {
	db.closemu.Lock()
	defer db.closemu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var ferr error
	if db.opts.PersistIndexOnClose && db.dirty.Load() {
		ferr = db.persistIndex()
	}
	if db.coord != nil {
		if err := db.coord.Close(); err != nil && ferr == nil {
			ferr = err
		}
	}
	if db.lent.Load() != 0 {
		// Masks lent by LoadMask are still out: seal the WAL but leave
		// the pixel files they view open; the last ReleaseMask closes
		// the store.
		db.ws.CloseWAL()
	} else if err := db.st.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

// persistIndex publishes <db>/chi.gob via the store's atomic
// write-fsync-rename-dirsync path, so a crash at any point leaves
// either the old index or the new one — never a torn file the next
// Open would silently discard. Callers (Close, checkpointIndex) are
// mutually exclusive, which the fixed temp name relies on.
func (db *DB) persistIndex() error {
	return store.AtomicWriteFile(store.DirFS(),
		filepath.Join(db.dir, store.IndexFileName), db.idx.Encode)
}

// CheckpointIndex durably persists the CHI index to <db>/chi.gob now,
// without waiting for Close — the same atomic temp-file + rename +
// directory-fsync path Close uses. It is a no-op when the index has
// not changed since the last persist. Before this existed the index
// survived only a clean Close: a crash after hours of ingestion
// rebuilt every CHI from scratch on the next open. Compact checkpoints
// automatically (when Options.PersistIndexOnClose is set), and msserve
// exposes an every-N-batches knob; call this directly for any other
// durability point. Safe to run concurrently with queries and appends.
func (db *DB) CheckpointIndex() error {
	if err := db.beginOp(); err != nil {
		return err
	}
	defer db.endOp()
	return db.checkpointIndex()
}

// checkpointIndex is CheckpointIndex without the open-state admission,
// for callers already inside beginOp (Compact). Must not be called
// from Close's path: Close holds the closemu write lock and calls
// persistIndex directly.
func (db *DB) checkpointIndex() error {
	db.ckptmu.Lock()
	defer db.ckptmu.Unlock()
	if !db.dirty.Load() {
		return nil
	}
	// Clear the flag before encoding: an Observe racing the encode
	// re-dirties it and the next checkpoint picks that mask up. The
	// opposite order would clear a dirtying we never persisted.
	db.dirty.Store(false)
	if err := db.persistIndex(); err != nil {
		db.dirty.Store(true)
		return err
	}
	return nil
}

// env wires the query engine to this DB's store and index, growing
// the index from every verified mask.
func (db *DB) env(ex core.Exec) *core.Env {
	return &core.Env{
		Loader: db.st,
		Index:  db.idx,
		Exec:   ex,
		OnVerify: func(id int64, m *Mask) {
			// Only dirty the index when this mask is actually new to
			// it, so Close never rewrites an unchanged chi.gob.
			if chi, _ := db.idx.ChiFor(id); chi == nil {
				db.idx.Observe(id, m)
				db.dirty.Store(true)
			}
		},
	}
}

// envFor resolves per-query options against the DB defaults into an
// execution environment.
func (db *DB) envFor(qo queryOptions) (*core.Env, error) {
	if qo.eagerBounds && qo.readOnlyIdx {
		// Eager bounds grow the shared index by construction, which is
		// exactly what a read-only query forbids.
		return nil, fmt.Errorf("masksearch: WithEagerBounds and WithoutIndexUpdates are mutually exclusive")
	}
	workers := db.opts.Workers
	if qo.workers != nil {
		if *qo.workers < 0 {
			return nil, fmt.Errorf("masksearch: WithWorkers wants n >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", *qo.workers)
		}
		workers = *qo.workers
	}
	env := db.env(core.ExecFor(workers))
	if qo.readOnlyIdx {
		env.OnVerify = nil
	}
	return env, nil
}

// ensureBounds eagerly builds CHIs for every target that lacks one
// (the WithEagerBounds per-query option), fanning loads and builds
// across the query's worker pool.
func (db *DB) ensureBounds(ctx context.Context, env *core.Env, targets []int64) error {
	built, err := core.IndexAll(ctx, db.st, db.idx, targets, env.Exec)
	if built > 0 {
		db.dirty.Store(true)
	}
	return err
}

// Entries returns all catalog rows; callers must not mutate them.
func (db *DB) Entries() []CatalogEntry { return db.cat.Entries() }

// Entry returns one mask's catalog row.
func (db *DB) Entry(id int64) (CatalogEntry, error) { return db.cat.Entry(id) }

// LoadMask returns one mask (counted in the store's stats, or as a
// cache hit with Options.CacheBytes configured). The mask is the
// caller's own read-only view of the database's mapped pixel file —
// writing to it faults. It stays readable until both DB.Close has run and
// the mask has been handed back through DB.ReleaseMask: the DB counts
// the masks it has lent, and Close leaves the mapping in place while
// any are outstanding. A lent mask that is never released therefore
// keeps the mapping's address range until the process exits; it never
// dangles.
func (db *DB) LoadMask(id int64) (*Mask, error) {
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	m, err := db.st.LoadMask(id)
	if err == nil {
		db.lent.Add(1)
	}
	return m, err
}

// ReleaseMask hands back a mask obtained from DB.LoadMask — exactly
// once per mask, after which the caller must not touch it: its header
// is reused by the next load (or its cache pin dropped), so a steady
// inspection stream allocates nothing. Safe on a nil mask and after
// Close; the release of the last lent mask after Close is what closes
// and unmaps the pixel files.
func (db *DB) ReleaseMask(m *Mask) {
	if m == nil {
		return
	}
	db.st.ReleaseMask(m)
	// closemu orders this against Close: either Close sees the count
	// already at zero and unmaps itself, or this release sees closed.
	db.closemu.RLock()
	if db.lent.Add(-1) == 0 && db.closed {
		db.st.Close()
	}
	db.closemu.RUnlock()
}

// MaskDims reports the fixed pixel dimensions every mask in this
// database has — the length DB.Append expects for AppendMask.Pixels
// is w*h.
func (db *DB) MaskDims() (w, h int) { return db.st.MaskW(), db.st.MaskH() }

// ReadStats reports the store's read counters — disk traffic plus the
// mask cache's hit/miss/evicted counts — accumulated since open. For
// a sharded database these are the per-shard counters aggregated; on a
// distributed DB the read work remote nodes did on this DB's behalf is
// included.
func (db *DB) ReadStats() ReadStats {
	s := db.st.Stats()
	if db.coord != nil {
		for _, r := range db.coord.RemoteShardStats() {
			addReadStats(&s, r)
		}
	}
	return s
}

// Codec reports the storage codec of the base mask layout: CodecRaw
// ("") for plain bytes, CodecRLE ("rle") for the run-length-encoded
// layout. Query results are byte-identical across codecs; the codec
// only changes the on-disk format and which kernel variant runs.
func (db *DB) Codec() string { return db.st.Codec() }

// StoredBytes reports the on-disk size of the mask payload (the
// compressed size under a non-raw codec; WAL-tail masks are counted by
// the ingestion stats, not here).
func (db *DB) StoredBytes() int64 { return db.st.StoredBytes() }

// Shards reports how many storage shards back this database (1 for a
// single-segment layout). On a sharded database with WAL compaction,
// the count grows as each compaction adds a shard.
func (db *DB) Shards() int {
	if ss, ok := db.ws.Base().(*store.ShardedStore); ok {
		return ss.NumShards()
	}
	return 1
}

// ShardReadStats reports each shard's read counters since open. For a
// single-segment database it returns one entry equal to ReadStats, so
// callers can render the per-shard split unconditionally. On a
// distributed DB each shard's entry sums the local counters with the
// reads remote nodes performed for that shard on this DB's behalf —
// remote work aggregates exactly like local per-shard work.
func (db *DB) ShardReadStats() []ReadStats {
	var out []ReadStats
	if ss, ok := db.ws.Base().(*store.ShardedStore); ok {
		out = ss.ShardStats()
	} else {
		out = []ReadStats{db.st.Stats()}
	}
	if db.coord != nil {
		for s, r := range db.coord.RemoteShardStats() {
			if s < len(out) {
				addReadStats(&out[s], r)
			}
		}
	}
	return out
}

// DBStats is the unified observability snapshot of one DB: storage
// traffic (aggregate and per shard), plan-template cache traffic, and
// the index footprint, taken together so consumers like `/metrics` and
// msinspect don't assemble it piecemeal from four calls.
type DBStats struct {
	// Reads is the store's read counters since open (ReadStats).
	Reads ReadStats
	// ShardReads is the per-shard split of Reads; a single-segment
	// database reports one entry equal to Reads.
	ShardReads []ReadStats
	// Shards is the storage shard count (1 for a single segment).
	Shards int
	// PlanCache is the plan-template cache's traffic since open.
	PlanCache PlanCacheStats
	// Index is the CHI index footprint.
	Index IndexStats
	// Ingest is the online ingestion path's counters: appended and
	// replayed masks, WAL footprint, compactions.
	Ingest IngestStats
	// Codec is the base layout's storage codec ("" = raw bytes,
	// "rle" = run-length encoded).
	Codec string
	// StoredBytes is the on-disk mask payload size; with a compressed
	// codec it is smaller than Index.DataBytes (the logical size), and
	// the ratio DataBytes/StoredBytes is the compression factor.
	StoredBytes int64
	// GenVersion is the synthetic generator version recorded in the
	// dataset's manifest (store.GenVersion at generation time), 0 for
	// ingested or legacy data. Harnesses compare it against the
	// current store.GenVersion to decide whether to regenerate.
	GenVersion int
	// Dist holds the coordinator's counters on a distributed DB, nil on
	// a local one.
	Dist *DistStats
}

// Stats returns one coherent observability snapshot of the DB. The
// counters are read in one pass but not atomically across subsystems;
// treat cross-field arithmetic as approximate under concurrent load.
func (db *DB) Stats() DBStats {
	s := DBStats{
		Reads:       db.ReadStats(),
		ShardReads:  db.ShardReadStats(),
		Shards:      db.Shards(),
		PlanCache:   db.plans.stats(),
		Ingest:      db.ws.IngestStats(),
		Codec:       db.st.Codec(),
		StoredBytes: db.st.StoredBytes(),
		GenVersion:  db.st.GenVersion(),
	}
	s.Index, _ = db.IndexStats()
	if db.coord != nil {
		ds := db.coord.Stats()
		s.Dist = &ds
	}
	return s
}

// AppendMask is one mask submitted to DB.Append: its metadata plus raw
// uint8 pixels (length MaskW*MaskH; 255 = value 1.0).
type AppendMask struct {
	ImageID  int64
	ModelID  int
	MaskType int
	Label    int
	Pred     int
	Modified bool
	Object   Rect
	Pixels   []byte
}

// Append durably ingests new masks and returns their assigned mask
// ids (contiguous, extending the id space). The batch is written to
// the write-ahead log as one transaction and fsynced before Append
// returns: an acknowledged append survives any crash, a crash
// mid-batch rolls the whole batch back on the next Open. Appended
// masks are immediately queryable — and immediately indexed — while
// queries already executing keep their snapshot of the id space.
// Append may run concurrently with queries; concurrent Appends
// serialize against each other.
func (db *DB) Append(ctx context.Context, masks []AppendMask) ([]int64, error) {
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	if db.coord != nil {
		// Appended masks would live in this process's WAL tail, which
		// the remote shard nodes (each opening their own copy of the
		// dataset) cannot see — every query would silently miss them.
		return nil, fmt.Errorf("masksearch: Append is not available on a distributed DB: remote shard nodes cannot see this process's WAL tail; ingest locally and redistribute the dataset")
	}
	in := make([]store.IngestMask, len(masks))
	for i, m := range masks {
		in[i] = store.IngestMask{
			Entry: store.Entry{
				ImageID: m.ImageID, ModelID: m.ModelID, MaskType: m.MaskType,
				Label: m.Label, Pred: m.Pred, Modified: m.Modified, Object: m.Object,
			},
			Pix: m.Pixels,
		}
	}
	ids, err := db.st.Append(ctx, in)
	if err != nil {
		return nil, err
	}
	// Observe the new masks into the CHI index right away (the pixels
	// are already in hand, so this is pure CPU) — appended masks get
	// filter bounds without waiting to be verified by a query.
	for i, id := range ids {
		if chi, _ := db.idx.ChiFor(id); chi == nil {
			db.idx.Observe(id, &core.Mask{W: db.st.MaskW(), H: db.st.MaskH(), Bytes: masks[i].Pixels})
			db.dirty.Store(true)
		}
	}
	return ids, nil
}

// Compact folds the durable WAL tail into the base storage layout
// (appending to masks.bin on a single-segment database, adding a new
// shard on a sharded one) and deletes the retired WAL segments. It
// returns the number of masks moved. Queries run undisturbed;
// concurrent Appends wait for the compaction to finish.
func (db *DB) Compact(ctx context.Context) (int, error) {
	if err := db.beginOp(); err != nil {
		return 0, err
	}
	defer db.endOp()
	n, err := db.ws.Compact(ctx)
	if err != nil {
		return n, err
	}
	// Compaction is the natural durability point of the ingestion
	// path: the masks just became part of the base layout, so persist
	// their CHIs too. Otherwise a crash after Compact rebuilds the
	// whole index even though the data survived.
	if n > 0 && db.opts.PersistIndexOnClose {
		if err := db.checkpointIndex(); err != nil {
			return n, fmt.Errorf("masksearch: compact succeeded but index checkpoint failed: %w", err)
		}
	}
	return n, nil
}

// MaskLocation reports where a mask currently lives: "base" for the
// compacted layout, "wal:<segment file>" for WAL-resident masks, ""
// for unknown ids.
func (db *DB) MaskLocation(id int64) string { return db.ws.MaskLocation(id) }

// IndexStats reports the current index footprint.
func (db *DB) IndexStats() (IndexStats, error) {
	s := IndexStats{
		IndexedMasks: db.idx.Len(),
		IndexBytes:   db.idx.SizeBytes(),
		DataBytes:    db.st.DataBytes(),
	}
	if s.DataBytes > 0 {
		s.Fraction = float64(s.IndexBytes) / float64(s.DataBytes)
	}
	return s, nil
}

// Result is the answer to one Query call.
type Result struct {
	// Kind reports which plan executed: filter, topk or aggregation.
	Kind PlanKind
	// Stats reports how the filter–verification pipeline resolved the
	// query. Loaded counts actual mask reads: a WHERE + ORDER BY query
	// may read an undecided mask in both its stages, so FML can exceed
	// 1 when the pipeline did more I/O than one pass over the targets.
	Stats core.Stats
	// IDs holds filter results (matching mask ids in catalog order).
	IDs []int64
	// Ranked holds topk/aggregation results, best first. For
	// aggregations the ID is the group key.
	Ranked []Scored
	// Degraded is set only on a distributed DB when the query opted in
	// with WithDegradedResults AND at least one shard was unreachable:
	// the answer excludes that shard's masks. It is never set silently —
	// without the opt-in the same condition fails the query with
	// ErrShardUnavailable. Results that are not flagged degraded are
	// byte-identical to local execution.
	Degraded bool
	// MissingShards lists the shard indexes excluded from a Degraded
	// answer (nil otherwise).
	MissingShards []int
}

// setEmpty materializes the empty result in the field matching Kind,
// so a LIMIT 0 ranking query yields Ranked: []Scored{} rather than a
// filter-shaped IDs slice.
func (r *Result) setEmpty() {
	if r.Kind == planFilter {
		r.IDs = []int64{}
	} else {
		r.Ranked = []Scored{}
	}
}

// Prepare compiles one msquery-dialect SQL statement — with optional
// `?` placeholders — into a reusable Stmt. The parse and plan work is
// paid once; every Stmt.Query/QueryBatch/Rows call only binds
// parameter values into the cached template. Prepare consults the
// DB's plan cache, so preparing the same text twice returns the same
// underlying template.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.prepared(sql)
}

// prepared returns the cached Stmt for sql, compiling and caching it
// on a miss.
func (db *DB) prepared(sql string) (*Stmt, error) {
	if st := db.plans.get(sql); st != nil {
		return st, nil
	}
	stmt, err := parseQuery(sql)
	if err != nil {
		return nil, err
	}
	tmpl, err := db.compile(stmt)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, sql: sql, tmpl: tmpl}
	db.plans.put(sql, st)
	return st, nil
}

// PlanCacheStats reports the plan-template cache's traffic since
// open.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.stats() }

// Explain parses and plans sql, returning the compiled plan rendered
// as text without executing anything. For a parameterized statement,
// call with no args to render the unbound template (placeholders as
// ?N) or with a full argument set to render the bound plan.
func (db *DB) Explain(sql string, args ...any) (string, error) {
	st, err := db.prepared(sql)
	if err != nil {
		return "", err
	}
	return st.Explain(args...)
}

// Query plans and executes one msquery-dialect SQL statement (see
// package sql.go for the dialect), binding one argument per `?`
// placeholder. QueryOpt values may be interleaved with the arguments
// to tune this call only. Query is implemented on top of Prepare and
// an internal plan cache, so repeated statements of the same text
// skip the parse and plan work.
func (db *DB) Query(ctx context.Context, sql string, args ...any) (*Result, error) {
	st, err := db.prepared(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(ctx, args...)
}

// Rows plans and executes one statement as a stream (see Stmt.Rows):
// filter matches are yielded incrementally as the scan decides them,
// and breaking out of the loop stops the scan without loading the
// tail.
func (db *DB) Rows(ctx context.Context, sql string, args ...any) iter.Seq2[Row, error] {
	st, err := db.prepared(sql)
	if err != nil {
		return func(yield func(Row, error) bool) { yield(Row{}, err) }
	}
	return st.Rows(ctx, args...)
}

// QueryBatch plans and executes a batch of msquery-dialect statements
// as one scheduled workload (§4.5). Every statement runs through the
// same execution path as Query, each on its own goroutine, and the
// batch shares their mask loads: whenever every statement is waiting on
// masks, each distinct mask any of them needs is loaded from the store
// once and verified for all of them (and, with Options.CacheBytes set,
// served from the cache across rounds and batches). Every Result is
// byte-identical to running its statement alone through Query; its
// stats bill the statement for every mask it verified, shared or not.
// A parse or plan error anywhere fails the whole batch before any
// statement executes, and the first execution error fails the rest.
// Statements must be placeholder-free (parameter sweeps batch through
// Stmt.QueryBatch instead); opts tune the whole batch.
func (db *DB) QueryBatch(ctx context.Context, sqls []string, opts ...QueryOpt) ([]*Result, error) {
	var qo queryOptions
	for _, o := range opts {
		o(&qo)
	}
	plans := make([]*plan, len(sqls))
	for i, sql := range sqls {
		st, err := db.prepared(sql)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
		p, err := st.tmpl.bind(nil)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
		plans[i] = p
	}
	env, err := db.envFor(qo)
	if err != nil {
		return nil, err
	}
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	return db.execBatch(ctx, env, plans, qo)
}

// query executes one bound plan on its own: on env, or on the
// cluster's stages under this query's partial-result policy when the
// DB is distributed.
func (db *DB) query(ctx context.Context, env *core.Env, view store.CatalogView, p *plan, qo queryOptions) (*Result, error) {
	var s core.Stages = env
	var part *dist.Partial
	if db.coord != nil {
		if qo.degradedOK {
			part = db.coord.NewPartial()
		}
		s = db.coord.Stages(part)
	}
	res, err := db.run(ctx, env, view, s, p, qo)
	if err != nil {
		return nil, err
	}
	if part != nil && part.Degraded() {
		res.Degraded = true
		res.MissingShards = part.Missing()
	}
	return res, nil
}

// run executes a bound plan over the catalog snapshot view, with its
// mask-touching stages on s: env, the cluster's stages, or a batch's
// shared stages. It is the one body every statement runs through;
// metadata planning, target selection and the drivers run here either
// way. Distributed results are byte-identical to local ones; only
// Stats load counts may differ (they depend on τ-update timing, like
// Options.Workers locally).
func (db *DB) run(ctx context.Context, env *core.Env, view store.CatalogView, s core.Stages, p *plan, qo queryOptions) (*Result, error) {
	res := &Result{Kind: p.kind}
	targets := view.MaskIDs(p.keep)
	nConsidered := len(targets)

	// LIMIT 0 is a valid, empty query — don't touch any mask. The
	// empty result must live in the field matching the plan kind: a
	// ranking plan answers in Ranked, not IDs.
	if p.k == 0 {
		res.setEmpty()
		return res, nil
	}
	if qo.eagerBounds {
		if db.coord != nil {
			// Eager bounds build the coordinator's local index, which
			// remote execution never consults: the nodes own the bounds
			// stage.
			return nil, fmt.Errorf("masksearch: WithEagerBounds is not available on a distributed DB (shard nodes own the bounds stage)")
		}
		if err := db.ensureBounds(ctx, env, targets); err != nil {
			return nil, err
		}
	}

	// A WHERE clause with CP predicates in front of a ranking plan
	// runs as a filter stage first.
	prefiltered := false
	if p.kind != planFilter && len(p.filterTerms) > 0 {
		ids, st, err := core.FilterOn(ctx, s, targets, p.filterTerms, p.pred)
		if err != nil {
			return nil, err
		}
		res.Stats.Merge(st)
		targets = ids
		prefiltered = true
	}

	switch p.kind {
	case planFilter:
		switch {
		case len(p.filterTerms) == 0:
			// Metadata-only predicate: the catalog already answered it.
			res.IDs = targets
			res.Stats.Targets = len(targets)
		case p.k > 0 && db.coord == nil:
			// LIMIT'd filter: scan in growing chunks and stop as soon as
			// enough masks matched, skipping the tail's loads.
			st, err := core.FilterEmit(ctx, s, targets, p.filterTerms, p.pred, func(id int64) bool {
				res.IDs = append(res.IDs, id)
				return len(res.IDs) < p.k
			})
			res.Stats.Merge(st)
			if err != nil {
				return nil, err
			}
		default:
			// A distributed LIMIT'd filter computes the full answer and
			// truncates: the early-exit streaming scan is a local
			// I/O-ordering trick that does not cross the wire.
			ids, st, err := core.FilterOn(ctx, s, targets, p.filterTerms, p.pred)
			if err != nil {
				return nil, err
			}
			res.Stats.Merge(st)
			res.IDs = ids
		}
		if p.k > 0 && len(res.IDs) > p.k {
			res.IDs = res.IDs[:p.k]
		}
	case planTopK:
		ranked, st, err := core.TopKOn(ctx, s, targets, p.scoreTerms, 0, p.k, p.order)
		if err != nil {
			return nil, err
		}
		res.Stats.Merge(st)
		res.Ranked = ranked
	case planAgg:
		groups := view.GroupIDs(targets, p.groupKey)
		ranked, st, err := core.AggTopKOn(ctx, s, groups, p.scoreTerms, 0, p.agg, p.k, p.order)
		if err != nil {
			return nil, err
		}
		res.Stats.Merge(st)
		res.Ranked = ranked
	default:
		return nil, fmt.Errorf("masksearch: unknown plan kind %v", p.kind)
	}
	if prefiltered {
		// Both stages counted the prefilter survivors; the query
		// considered each candidate mask once.
		res.Stats.Targets = nConsidered
	}
	return res, nil
}

// stream executes a bound plan for Stmt.Rows, yielding rows as they
// are decided. Local filter plans emit through core.FilterEmit's
// chunked scan (so a consumer that stops early skips the tail's
// loads); every other plan yields its materialized rows.
func (db *DB) stream(ctx context.Context, p *plan, qo queryOptions, yield func(Row, error) bool) {
	env, err := db.envFor(qo)
	if err != nil {
		yield(Row{}, err)
		return
	}
	if p.k == 0 {
		return
	}
	// Same snapshot isolation as Query: the streamed id space is pinned.
	view := db.cat.View()
	if p.kind != planFilter || db.coord != nil {
		// Ranking plans know their rows only once verification
		// completes, and the chunked early-exit scan is a local
		// I/O-ordering trick that does not cross the wire.
		res, err := db.query(ctx, env, view, p, qo)
		if err != nil {
			yield(Row{}, err)
			return
		}
		for _, id := range res.IDs {
			if !yield(Row{ID: id}, nil) {
				return
			}
		}
		for _, r := range res.Ranked {
			if !yield(Row{ID: r.ID, Score: r.Score}, nil) {
				return
			}
		}
		return
	}
	targets := view.MaskIDs(p.keep)
	if qo.eagerBounds {
		if err := db.ensureBounds(ctx, env, targets); err != nil {
			yield(Row{}, err)
			return
		}
	}
	if len(p.filterTerms) == 0 {
		// Metadata-only predicate: stream straight off the catalog.
		for i, id := range targets {
			if p.k > 0 && i >= p.k {
				return
			}
			if !yield(Row{ID: id}, nil) {
				return
			}
		}
		return
	}
	emitted := 0
	stopped := false
	_, err = core.FilterEmit(ctx, env, targets, p.filterTerms, p.pred, func(id int64) bool {
		if !yield(Row{ID: id}, nil) {
			stopped = true
			return false
		}
		emitted++
		return p.k < 0 || emitted < p.k
	})
	if err != nil && !stopped {
		yield(Row{}, err)
	}
}
