package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"masksearch"
)

// env is what one benchmark run is given.
type env struct {
	seed    int64
	seconds float64 // length of the timed phase
	trace   bool    // traced run: spans, counters and layer probes
	dataDir string  // datasets live (and are reused) here
	outDir  string  // trace files go here
	tiny    bool    // smoke-test scale: TinyDataset stands in for both datasets
	clients int     // cap on client goroutines/connections (nproc)
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// wilds and imagenet are the two dataset specs the workloads run on.
func (e *env) wilds() masksearch.DatasetSpec {
	if e.tiny {
		return masksearch.TinyDataset()
	}
	return masksearch.WILDSSim()
}

func (e *env) imagenet() masksearch.DatasetSpec {
	if e.tiny {
		return masksearch.TinyDataset()
	}
	return masksearch.ImageNetSim()
}

// opBudget sizes an op list: rate is comfortably above what the
// sandbox completes per second, so the timed phase ends on the clock
// and not on the list.
func (e *env) opBudget(rate float64) int { return max(50, int(rate*(e.seconds+1))) }

// result is everything one workload run measured.
type result struct {
	genS      float64   // dataset generation, seconds (0 when reused)
	setup     []float64 // seconds per open → ready cycle
	lat       []float64 // latency per timed op, ms
	elapsed   float64   // length of the timed phase, seconds
	attempted int
	failed    int
	opHash    string
	datasets  []dataset
	layer     map[string]float64 // per-layer metrics (traced runs)
	spans     []span
}

// begin makes sure the dataset a workload runs on exists and starts
// the workload's result.
func (e *env) begin(ds dataset) (res *result, dir string, err error) {
	res = &result{datasets: []dataset{ds}, layer: map[string]float64{}}
	dir, res.genS, err = ds.ensure(e.dataDir)
	return res, dir, err
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	// tailPct is the percentile tail_ms reports: the highest with at
	// least ten samples beyond it at this workload's op count.
	tailPct float64
	run     func(*env) (*result, error)
}

// setupBudget is how long set-up may keep cycling past its fifth cycle.
func (e *env) setupBudget() time.Duration {
	if e.tiny {
		return 0
	}
	return time.Second
}

// setupCycles times open → ready: at least 5 cycles, more (up to 25)
// while they stay within budget, so a cheap set-up gets a median over
// many samples. Instances are closed between cycles; the
// last one is returned open for the timed phase.
func setupCycles[T any](budget time.Duration, open func() (T, error), closeFn func(T) error) (T, []float64, error) {
	var (
		inst  T
		times []float64
		total time.Duration
	)
	for n := 0; n < 5 || (total < budget && n < 25); n++ {
		if n > 0 {
			if err := closeFn(inst); err != nil {
				return inst, nil, fmt.Errorf("close between set-up cycles: %w", err)
			}
		}
		t := time.Now()
		var err error
		if inst, err = open(); err != nil {
			return inst, nil, err
		}
		d := time.Since(t)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, times, nil
}

// engineCounts sums Result.Stats over ops.
type engineCounts struct {
	ops, targets, decided, loaded int
	// parsed counts statements that went through parse + plan; built
	// counts masks whose CHI was built during the ops (the incremental
	// index observing verified masks); opens counts OpenWith calls
	// inside ops.
	parsed, built, opens int
}

func (c *engineCounts) add(r *masksearch.Result) {
	c.ops++
	c.parsed++
	c.targets += r.Stats.Targets
	c.decided += r.Stats.AcceptedByBounds + r.Stats.RejectedByBounds
	c.loaded += r.Stats.Loaded
}

func (c *engineCounts) fill(layer map[string]float64) {
	layer["core.decided_share"] = share(float64(c.decided), float64(c.targets))
	layer["core.fml"] = share(float64(c.loaded), float64(c.targets))
}

// storeCounts turns two DB.Stats snapshots bracketing ops operations
// into the store and sql layers' counter metrics.
func storeCounts(layer map[string]float64, before, after masksearch.DBStats, ops int) {
	n := float64(max(ops, 1))
	rd := after.Reads.Sub(before.Reads)
	layer["store.masks_loaded_per_op"] = float64(rd.MasksLoaded+rd.TailLoads) / n
	layer["store.bytes_read_per_op"] = float64(rd.BytesRead) / n
	layer["store.cache_hit_share"] = share(float64(rd.CacheHits), float64(rd.CacheHits+rd.CacheMisses))
	layer["store.cache_evicted_per_op"] = float64(rd.CacheEvicted) / n
	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	misses := float64(after.PlanCache.Misses - before.PlanCache.Misses)
	layer["sql.plan_hit_share"] = share(hits, hits+misses)
	layer["store.index_share"] = after.Index.Fraction
	layer["store.stored_bytes_per_user_byte"] = share(float64(after.StoredBytes), float64(after.Index.DataBytes))
}

// traceFile is where a workload's spans are written.
func (e *env) traceFile(name string) string {
	return filepath.Join(e.outDir, "trace-"+name+".jsonl")
}

// recorder returns a span recorder for a traced run and nil — which
// records nothing — otherwise.
func (e *env) recorder() *recorder {
	if !e.trace {
		return nil
	}
	return &recorder{t0: time.Now()}
}

// tracedOp reports whether op i records spans in a traced run. Every
// other op does, so one pass yields the traced and the untraced
// latency of the same workload and their difference is the tracing
// overhead.
func (e *env) tracedOp(i int) bool { return e.trace && i%2 == 1 }

// splitByTrace splits per-op latencies into traced and untraced ops.
func (e *env) splitByTrace(lat []float64) (traced, untraced []float64) {
	for i, v := range lat {
		if e.tracedOp(i) {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	return traced, untraced
}

// loopOut is what a closed query loop measured.
type loopOut struct {
	lat     []float64   // per-op latency, ms
	began   []time.Time // per-op start
	digests []uint64    // per-op answer digest, 0 for a failed op
	counts  engineCounts
	failed  int
	elapsed float64 // wall time of the loop, seconds
}

// queryLoop is the closed loop of the explore-style workloads: one
// client runs ops through DB.Query until the clock runs out, an error
// counting as a failed op.
func queryLoop(e *env, db *masksearch.DB, ops []op, dur time.Duration, rec *recorder) loopOut {
	var out loopOut
	ctx := context.Background()
	start := time.Now()
	for i := range ops {
		if time.Since(start) >= dur {
			break
		}
		var r *recorder
		if e.tracedOp(i) {
			r = rec
		}
		root := r.start("op", -1, i)
		t := time.Now()
		// DB.Query is Prepare + Stmt.Query; calling the two halves keeps
		// the same path and lets the trace see the boundary.
		sp := r.start("sql.prepare", root, i)
		stmt, err := db.Prepare(ops[i].SQL)
		r.end(sp)
		var res *masksearch.Result
		if err == nil {
			sp = r.start("stmt.query", root, i)
			res, err = stmt.Query(ctx, ops[i].Args...)
			r.end(sp)
		}
		d := time.Since(t)
		r.end(root)
		out.lat = append(out.lat, ms(d))
		out.began = append(out.began, t)
		if err != nil {
			out.failed++
			out.digests = append(out.digests, 0)
			continue
		}
		out.digests = append(out.digests, digestResult(res))
		out.counts.add(res)
	}
	out.elapsed = time.Since(start).Seconds()
	return out
}

// mismatches counts ops whose answer differs from the reference's;
// failed ops (digest 0) were already counted as failed.
func mismatches(got, want []uint64) int {
	n := 0
	for i := range want {
		if got[i] != 0 && got[i] != want[i] {
			n++
		}
	}
	return n
}
