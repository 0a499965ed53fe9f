package main

import (
	"context"
	"time"

	"masksearch"
)

// sessionCacheBytes is session.cold's mask cache budget: a third of
// imagenet-sim's 24.5 MB, so the cache evicts.
const sessionCacheBytes = 8 << 20

// sessionCheck is how many sessions are re-answered statement by
// statement on an eagerly indexed reference DB.
const sessionCheck = 8

// runSession is session.cold: one op is a whole exploration session —
// open with no index and a small mask cache, sessionBatches QueryBatch
// calls, close — so users' cold-start cost is inside every sample.
func runSession(e *env) (*result, error) {
	ds := dataset{dir: "imagenet-raw", spec: e.imagenet(), shards: 1}
	res, dir, err := e.begin(ds)
	if err != nil {
		return nil, err
	}

	g := newGen(e.seed, "session", ds.spec)
	sessions := make([][][]op, e.opBudget(40))
	hash := newOpHasher()
	for i := range sessions {
		sessions[i] = g.session()
		for _, b := range sessions[i] {
			hash.ops(b)
		}
	}
	res.opHash = hash.sum()

	open := func() (*masksearch.DB, error) {
		return masksearch.OpenWith(dir, masksearch.Options{CacheBytes: sessionCacheBytes})
	}
	// Ready means open: a cold session has no index to build and no
	// warm-up, so open → ready is the open alone.
	db, setup, err := setupCycles(e.setupBudget(), open, (*masksearch.DB).Close)
	if err != nil {
		return nil, err
	}
	db.Close()
	res.setup = setup

	rec := e.recorder()
	ctx := context.Background()
	var (
		counts engineCounts
		total  masksearch.DBStats // closing snapshots of every session, summed
	)
	digests := make([][]uint64, 0, len(sessions))
	start := time.Now()
	for i, sess := range sessions {
		if time.Since(start) >= e.duration() {
			break
		}
		var r *recorder
		if e.tracedOp(i) {
			r = rec
		}
		root := r.start("op", -1, i)
		t := time.Now()
		var got []uint64
		sp := r.start("open", root, i)
		db, err := open()
		r.end(sp)
		for _, batch := range sess {
			if err != nil {
				break
			}
			sqls := make([]string, len(batch))
			for j := range batch {
				sqls[j] = batch[j].SQL
			}
			sp = r.start("query_batch", root, i)
			var out []*masksearch.Result
			out, err = db.QueryBatch(ctx, sqls)
			r.end(sp)
			for _, o := range out {
				got = append(got, digestResult(o))
				counts.add(o)
			}
		}
		var stats masksearch.DBStats
		if db != nil {
			stats = db.Stats()
			sp = r.start("close", root, i)
			if cerr := db.Close(); err == nil {
				err = cerr
			}
			r.end(sp)
		}
		d := time.Since(t)
		r.end(root)
		res.lat = append(res.lat, ms(d))
		digests = append(digests, got)
		if err != nil {
			res.failed++
			digests[i] = nil
			continue
		}
		// Every session starts from zeroed counters, so its closing
		// snapshot is its delta.
		addStats(&total, stats)
		counts.built += stats.Index.IndexedMasks
		counts.opens++
	}
	res.elapsed = time.Since(start).Seconds()
	res.attempted = len(res.lat)

	// Check: the first sessions again, one statement at a time, on an
	// eagerly indexed DB without a cache — a different executor, index
	// path and load path that must give byte-identical answers.
	ref, err := masksearch.OpenWith(dir, masksearch.Options{EagerIndex: true})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for i := range min(sessionCheck, len(digests)) {
		if digests[i] == nil {
			continue
		}
		var want []uint64
		for _, batch := range sessions[i] {
			out := queryLoop(e, ref, batch, 1<<62, nil)
			if out.failed > 0 {
				res.failed++
			}
			want = append(want, out.digests...)
		}
		if mismatches(digests[i], want) > 0 {
			res.failed++
		}
	}

	if e.trace {
		res.spans = rec.snapshot()
		counts.fill(res.layer)
		storeCounts(res.layer, masksearch.DBStats{}, total, counts.opens)
		var sample []op
		for _, b := range sessions[0] {
			sample = append(sample, b...)
		}
		// The engine counted statements; the model's op is a session.
		counts.ops = res.attempted
		if err := e.probeAndExplain(res, dir, ds.spec, sample, counts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// addStats adds one session's closing snapshot to total: the counters
// storeCounts reads are summed, the footprint fields keep the latest.
func addStats(total *masksearch.DBStats, s masksearch.DBStats) {
	total.Reads.MasksLoaded += s.Reads.MasksLoaded
	total.Reads.TailLoads += s.Reads.TailLoads
	total.Reads.BytesRead += s.Reads.BytesRead
	total.Reads.CacheHits += s.Reads.CacheHits
	total.Reads.CacheMisses += s.Reads.CacheMisses
	total.Reads.CacheEvicted += s.Reads.CacheEvicted
	total.PlanCache.Hits += s.PlanCache.Hits
	total.PlanCache.Misses += s.PlanCache.Misses
	total.Index, total.StoredBytes = s.Index, s.StoredBytes
}
