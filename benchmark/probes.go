package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"masksearch"
	"masksearch/internal/core"
	"masksearch/internal/dist"
)

// probeBudget is how long each layer probe measures.
func (e *env) probeBudget() time.Duration {
	if e.tiny {
		return 2 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int64

// probeMasks is how many masks the core probes keep loaded.
const probeMasks = 256

// runProbes times single layers from outside through their public
// functions, on the workload's own dataset and on regions and ranges
// sampled from its ops, and stores the unit costs in layer. It
// returns the mean region size in pixels of the sampled ops, which
// the cost model multiplies the kernel cost by.
func runProbes(e *env, dir string, spec masksearch.DatasetSpec, sample []op, layer map[string]float64) (regionPx float64, err error) {
	db, err := masksearch.OpenWith(dir, masksearch.Options{PlanCacheEntries: -1})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	// A plain open — no eager index, nothing to replay — is the store's
	// own share of every workload's set-up.
	plain, opens, err := setupCycles(e.setupBudget(), func() (*masksearch.DB, error) {
		return masksearch.OpenWith(dir, masksearch.Options{})
	}, (*masksearch.DB).Close)
	if err != nil {
		return 0, err
	}
	plain.Close()
	layer["store.open_ms"] = median(opens) * 1e3
	w, h := db.MaskDims()
	entries := db.Entries()
	rng := rand.New(rand.NewSource(e.seed))
	probeBudget := e.probeBudget()

	// sql: Prepare on text the DB has not seen (plan cache off), and
	// Stmt.Check, which is exactly the bind step of a prepared query.
	texts := newGen(e.seed, "probe", spec).exploreOps(2000, 0.4, 0.4)
	var perr error
	layer["sql.prepare_us"] = blockMedian(probeBudget, 50, func(i int) {
		if _, err := db.Prepare(texts[i%len(texts)].SQL); err != nil {
			perr = err
		}
	}) / 1e3
	stmt, err := db.Prepare("SELECT mask_id FROM masks WHERE CP(mask, object, ?, ?) > ? AND label = ? AND model_id = ?")
	if err != nil {
		return 0, err
	}
	layer["sql.bind_us"] = blockMedian(probeBudget, 200, func(i int) {
		if err := stmt.Check(0.5, 1.0, i%100, i%10, 1); err != nil {
			perr = err
		}
	}) / 1e3

	// store: whole-mask loads over shuffled ids.
	perm := rng.Perm(len(entries))
	layer["store.load_us_per_mask"] = blockMedian(probeBudget, 100, func(i int) {
		m, err := db.LoadMask(entries[perm[i%len(perm)]].MaskID)
		if err != nil {
			perr = err
			return
		}
		db.ReleaseMask(m)
	}) / 1e3

	// core: CHI build, CHI bounds and the exact-CP kernel over a set of
	// loaded masks, in the codec the store hands them out in.
	n := min(probeMasks, len(entries))
	masks := make([]*masksearch.Mask, n)
	ents := make([]masksearch.CatalogEntry, n)
	for i := range masks {
		ents[i] = entries[perm[i]]
		if masks[i], err = db.LoadMask(ents[i].MaskID); err != nil {
			return 0, err
		}
		defer db.ReleaseMask(masks[i])
	}
	// The facade's default index granularity (see masksearch.Options).
	cfg := core.Config{CellW: max(2, w/4), CellH: max(2, h/4), Edges: core.DefaultEdges(10)}
	chis := make([]*core.CHI, n)
	for i := range chis {
		if chis[i], err = core.Build(masks[i], cfg); err != nil {
			return 0, err
		}
	}
	layer["core.build_us_per_mask"] = blockMedian(probeBudget, 32, func(i int) {
		chi, err := core.Build(masks[i%n], cfg)
		if err != nil {
			perr = err
			return
		}
		sink += int64(chi.GW)
	}) / 1e3
	region := func(o *op, ent masksearch.CatalogEntry) masksearch.Rect {
		if o.Region == regionObject {
			return ent.Object
		}
		return o.Rect
	}
	var cpOps []op
	for _, o := range sample {
		if o.Kind != opMeta {
			cpOps = append(cpOps, o)
		}
	}
	if len(cpOps) == 0 {
		return 0, fmt.Errorf("probes: no CP op in the sample")
	}
	layer["core.bounds_ns_per_mask"] = blockMedian(probeBudget, 1000, func(i int) {
		o := &cpOps[(i/n)%len(cpOps)]
		sink += chis[i%n].CPBounds(region(o, ents[i%n]), o.VR).Hi
	})
	// The kernel's cost is per pixel of region, so each block — one
	// op's region over every probe mask — is divided by the pixels it
	// covered.
	var px float64
	var perPx []float64
	start := time.Now()
	for b := 0; len(perPx) < 5 || time.Since(start) < probeBudget; b++ {
		o := &cpOps[b%len(cpOps)]
		var area int
		t := time.Now()
		for i := range masks {
			r := region(o, ents[i])
			sink += masksearch.CP(masks[i], r, o.VR)
			area += r.Area()
		}
		d := time.Since(t)
		if area > 0 {
			perPx = append(perPx, float64(d)/float64(area))
			px += float64(area) / float64(n)
		}
	}
	layer["core.kernel_ns_per_px"] = median(perPx)
	regionPx = px / float64(len(perPx))

	// dist: one frame round trip through the wire codec, no socket.
	payload := make([]byte, 64<<10)
	rng.Read(payload)
	var buf bytes.Buffer
	layer["dist.frame_us"] = blockMedian(probeBudget, 20, func(int) {
		buf.Reset()
		if _, err := dist.WriteFrame(&buf, 1, payload); err != nil {
			perr = err
		}
		if _, _, _, err := dist.ReadFrame(&buf, 0); err != nil {
			perr = err
		}
	}) / 1e3
	return regionPx, perr
}

// probeAndExplain finishes a traced run: layer probes on the
// workload's dataset, the tracing overhead from the traced and
// untraced halves of res.lat, and trace.explained_share — what part of
// the mean op time the cost model count × unit cost accounts for:
// parse and plan once per parsed statement, CHI bounds once per
// target, one load and one kernel pass over the region per loaded
// mask, one CHI build per mask the incremental index took in, one
// store open per open.
func (e *env) probeAndExplain(res *result, dir string, spec masksearch.DatasetSpec, sample []op, c engineCounts) error {
	layer := res.layer
	regionPx, err := runProbes(e, dir, spec, sample, layer)
	if err != nil {
		return err
	}
	traced, untraced := e.splitByTrace(res.lat)
	layer["trace.overhead_ms"] = median(traced) - median(untraced)
	ops := float64(max(c.ops, 1))
	model := float64(c.parsed)/ops*layer["sql.prepare_us"]/1e3 +
		float64(c.targets)/ops*layer["core.bounds_ns_per_mask"]/1e6 +
		float64(c.loaded)/ops*(layer["store.load_us_per_mask"]/1e3+regionPx*layer["core.kernel_ns_per_px"]/1e6) +
		float64(c.built)/ops*layer["core.build_us_per_mask"]/1e3 +
		float64(c.opens)/ops*layer["store.open_ms"]
	layer["trace.model_ms"] = model
	layer["trace.explained_share"] = share(model, mean(res.lat))
	return nil
}
