package main

import (
	"fmt"
	"math/rand"

	"masksearch"
)

// Explore mix: 40 % filter, 40 % top-k, 20 % grouped MEAN(CP) top-k.
const (
	exploreFilter = 0.4
	exploreTopK   = 0.4
)

// oracleSample is how many explore.raw ops are re-answered by brute
// force.
const oracleSample = 20

// wildsDataset is the single-segment wilds-sim layout in one codec.
func (e *env) wildsDataset(codec string) dataset {
	name := "wilds-raw"
	if codec != "" {
		name = "wilds-" + codec
	}
	return dataset{dir: name, spec: e.wilds(), codec: codec, shards: 1}
}

// openExplore opens a dataset the way the explore workloads query it:
// eager index, cache off, nothing persisted.
func openExplore(dir string) (*masksearch.DB, error) {
	return masksearch.OpenWith(dir, masksearch.Options{EagerIndex: true})
}

// runExplore is explore.raw (codec "") and explore.rle: one client,
// closed loop, a unique literal statement per op against an eagerly
// indexed single-segment wilds-sim with the mask cache off.
func runExplore(e *env, codec string) (*result, error) {
	ds := e.wildsDataset(codec)
	res, dir, err := e.begin(ds)
	if err != nil {
		return nil, err
	}

	// Both codecs replay one op list; the RLE run is slower, so it gets
	// through a prefix of what the raw run covers.
	ops := newGen(e.seed, "explore", ds.spec).exploreOps(e.opBudget(1500), exploreFilter, exploreTopK)
	hash := newOpHasher()
	hash.ops(ops)
	res.opHash = hash.sum()

	db, setup, err := setupCycles(e.setupBudget(), func() (*masksearch.DB, error) { return openExplore(dir) }, (*masksearch.DB).Close)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	res.setup = setup

	// Untimed warm-up on ops from the end of the list, which the timed
	// phase never reaches.
	warm := ops[len(ops)-len(ops)/20:]
	queryLoop(e, db, warm, e.duration()/20, nil)

	rec := e.recorder()
	before := db.Stats()
	run := queryLoop(e, db, ops, e.duration(), rec)
	after := db.Stats()
	done := len(run.lat)
	res.lat, res.elapsed, res.attempted, res.failed = run.lat, run.elapsed, done, run.failed

	// Check answers: raw against the brute-force oracle on a sample,
	// rle against the raw layout's answer to the same op, every op.
	if codec == "" {
		rng := rand.New(rand.NewSource(e.seed))
		for _, i := range rng.Perm(done)[:min(oracleSample, done)] {
			want, err := oracle(db, &ops[i])
			if err != nil {
				return nil, fmt.Errorf("oracle op %d: %w", i, err)
			}
			if run.digests[i] != 0 && run.digests[i] != want {
				res.failed++
			}
		}
	} else {
		rawDir, genS, err := e.wildsDataset("").ensure(e.dataDir)
		if err != nil {
			return nil, err
		}
		res.genS += genS
		ref, err := openExplore(rawDir)
		if err != nil {
			return nil, err
		}
		want := queryLoop(e, ref, ops[:done], 1<<62, nil)
		ref.Close()
		res.failed += want.failed + mismatches(run.digests, want.digests)
	}

	if e.trace {
		res.spans = rec.snapshot()
		run.counts.fill(res.layer)
		storeCounts(res.layer, before, after, done)
		if err := e.probeAndExplain(res, dir, ds.spec, ops[:done], run.counts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
