package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"masksearch"
)

// ingest.mixed's write schedule: ingestRate Append batches a second,
// DB.Compact after every compactEvery-th batch: 240 batches and four
// compaction cycles in a 12 s run.
const (
	ingestRate   = 20
	compactEvery = 50
)

// window is one compaction's wall-clock interval.
type window struct{ from, to time.Time }

// runIngest is ingest.mixed: one writer Appends paced batches (and
// compacts) while one reader runs the explore mix closed-loop on the
// same DB. p50_ms, tail_ms and ops_per_s are the reader's; the
// writer's ack latency, from each batch's due time, is store.write_*.
// After the run the DB is closed and reopened, and every acknowledged
// mask must be there with the pixels it was sent with.
func runIngest(e *env) (*result, error) {
	ds := e.wildsDataset("")
	res, src, err := e.begin(ds)
	if err != nil {
		return nil, err
	}
	// The workload grows its dataset, so it runs on a private copy.
	dir, cleanup, err := scratchCopy(e.dataDir, src, "ingest")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	g := newGen(e.seed, "ingest", ds.spec)
	ops := g.exploreOps(e.opBudget(1500), exploreFilter, exploreTopK)
	nb := int(ingestRate * e.seconds)
	batches := g.appendBatches(nb)
	hash := newOpHasher()
	hash.ops(ops)
	hash.appends(batches)
	res.opHash = hash.sum()

	db, setup, err := setupCycles(e.setupBudget(), func() (*masksearch.DB, error) { return openExplore(dir) }, (*masksearch.DB).Close)
	if err != nil {
		return nil, err
	}
	defer func() { db.Close() }()
	res.setup = setup
	queryLoop(e, db, ops[len(ops)-len(ops)/20:], e.duration()/20, nil)

	rec := e.recorder()
	ctx := context.Background()
	var (
		acked     = make([][]int64, nb)
		appendUS  = make([]float64, nb)
		compactMS []float64
		windows   []window
		walBytes  int64 // WAL bytes written, summed across compactions
		walLast   = db.Stats().Ingest.WALBytes
		writes    openLoop
		wg        sync.WaitGroup
	)
	before := db.Stats()
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = runOpenLoop(nb, time.Second/ingestRate, 1, func(i int) error {
			// Writer spans get op ids above the reader's.
			sp := rec.start("append", -1, 1_000_000+i)
			t := time.Now()
			ids, err := db.Append(ctx, batches[i])
			appendUS[i] = us(time.Since(t)) / appendBatchSize
			rec.end(sp)
			if err != nil {
				return err
			}
			acked[i] = ids
			if (i+1)%compactEvery == 0 {
				walBytes += db.Stats().Ingest.WALBytes - walLast
				sp := rec.start("compact", -1, 1_000_000+i)
				w := window{from: time.Now()}
				_, err = db.Compact(ctx)
				w.to = time.Now()
				rec.end(sp)
				compactMS = append(compactMS, ms(w.to.Sub(w.from)))
				windows = append(windows, w)
				walLast = db.Stats().Ingest.WALBytes
			}
			return err
		})
	}()
	run := queryLoop(e, db, ops, time.Duration(nb)*time.Second/ingestRate, rec)
	wg.Wait()
	after := db.Stats()
	walBytes += after.Ingest.WALBytes - walLast
	res.lat, res.elapsed = run.lat, run.elapsed
	res.attempted, res.failed = len(run.lat)+nb, run.failed

	// Durability check: close, reopen, and look every acked mask up.
	if err := db.Close(); err != nil {
		return nil, err
	}
	if db, err = masksearch.OpenWith(dir, masksearch.Options{}); err != nil {
		return nil, fmt.Errorf("reopen after ingest: %w", err)
	}
	for i, b := range batches {
		if writes.errs[i] != nil || !present(db, acked[i], b) {
			res.failed++
		}
	}

	if e.trace {
		res.spans = rec.snapshot()
		run.counts.fill(res.layer)
		storeCounts(res.layer, before, after, len(run.lat))
		var writeMS []float64
		for _, d := range writes.lat {
			writeMS = append(writeMS, ms(d))
		}
		// Reader ops that overlapped a compaction against those that did not.
		var inside, outside []float64
		for i, began := range run.began {
			end := began.Add(time.Duration(run.lat[i] * float64(time.Millisecond)))
			in := false
			for _, w := range windows {
				in = in || (began.Before(w.to) && end.After(w.from))
			}
			if in {
				inside = append(inside, run.lat[i])
			} else {
				outside = append(outside, run.lat[i])
			}
		}
		ing := after.Ingest
		res.layer["store.append_us_per_mask"] = median(appendUS)
		res.layer["store.write_p50_ms"] = median(writeMS)
		res.layer["store.write_tail_ms"] = percentile(writeMS, 90)
		res.layer["store.wal_bytes_per_user_byte"] = share(float64(walBytes), float64(ing.AppendedBytes-before.Ingest.AppendedBytes))
		res.layer["store.compact_ms"] = median(compactMS)
		res.layer["store.compactions"] = float64(ing.Compactions - before.Ingest.Compactions)
		res.layer["store.compact_stall_ms"] = percentile(inside, 90) - percentile(outside, 90)
		if err := e.probeAndExplain(res, src, ds.spec, ops[:len(run.lat)], run.counts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// present reports whether every mask of an acknowledged batch is in
// db under its acked id with the metadata and pixels it was sent with.
func present(db *masksearch.DB, ids []int64, batch []masksearch.AppendMask) bool {
	if len(ids) != len(batch) {
		return false
	}
	for j, id := range ids {
		ent, err := db.Entry(id)
		if err != nil || ent.ImageID != batch[j].ImageID || ent.Label != batch[j].Label || ent.Object != batch[j].Object {
			return false
		}
		m, err := db.LoadMask(id)
		if err != nil {
			return false
		}
		same := bytes.Equal(m.Decoded().Bytes, batch[j].Pixels)
		db.ReleaseMask(m)
		if !same {
			return false
		}
	}
	return true
}
