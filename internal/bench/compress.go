package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"masksearch/internal/core"
	"masksearch/internal/store"
	"masksearch/internal/workload"
)

// CompressRow is one machine-readable measurement of the compress
// experiment: one phase (layout footprint, index build, whole-mask
// load loop, or a query family) over one storage codec. The rows feed
// BENCH_compress.json.
type CompressRow struct {
	Exp           string  `json:"exp"`
	Dataset       string  `json:"dataset"`
	Codec         string  `json:"codec"`
	Family        string  `json:"family"`
	Workers       int     `json:"workers,omitempty"`
	Queries       int     `json:"queries,omitempty"`
	NsTotal       int64   `json:"ns_total,omitempty"`
	MasksLoaded   int64   `json:"masks_loaded,omitempty"`
	BytesRead     int64   `json:"bytes_read,omitempty"`
	LoadNsPerMask int64   `json:"load_ns_per_mask,omitempty"`
	StoredBytes   int64   `json:"stored_bytes,omitempty"`
	DataBytes     int64   `json:"data_bytes,omitempty"`
	Ratio         float64 `json:"ratio,omitempty"`
	// WallVsRaw, on a timed phase, is its wall time over the raw
	// codec's (ns_total / raw's ns_total, so 1 on the raw rows): the
	// wall-time twin of the bytes assertions. Recorded, not asserted —
	// off a fast disk, fewer bytes do not by themselves mean faster.
	WallVsRaw float64 `json:"wall_vs_raw,omitempty"`
	Identical bool    `json:"identical"`
}

// CompressReport carries the rendered table plus the JSON rows.
type CompressReport struct {
	*Report
	Rows []CompressRow
}

// codecLabel renders a manifest codec for reports ("" is the raw
// layout).
func codecLabel(c string) string {
	if c == "" {
		return "raw"
	}
	return c
}

// Compress compares the raw and RLE storage codecs on the same logical
// dataset: on-disk footprint, CHI index build (the RLE store builds by
// folding whole runs through a 256-entry LUT), whole-mask load latency
// and bytes, and the three query families — all with byte-identical
// results asserted across codecs, so compute-on-compressed can never
// drift from the reference layout. The RLE variant is generated (and
// reused) next to the dataset as <name>-rle. The experiment fails
// unless RLE reads strictly fewer bytes than raw in the load phase and
// stores strictly fewer bytes on disk; every timed phase also records
// its rle/raw wall-time ratio beside the bytes (CompressRow.WallVsRaw).
// The load phase follows the index build, which has already loaded —
// and so validated — every mask: it times repeat loads.
func Compress(ctx context.Context, d *DatasetEnv, dataDir string, n int, seed int64) (*CompressReport, error) {
	rleDir := filepath.Join(dataDir, d.Params.Name+"-rle")
	man, err := store.LoadManifest(rleDir)
	if err != nil || !sameSpec(man.Spec, d.Params) || man.Codec != store.CodecRLE || man.GenVersion != store.GenVersion {
		if err := store.GenerateCodec(rleDir, d.Params, store.CodecRLE); err != nil {
			return nil, fmt.Errorf("bench: generate rle %s: %w", d.Params.Name, err)
		}
	}
	rleSt, _, err := store.Open(rleDir)
	if err != nil {
		return nil, err
	}
	defer rleSt.Close()

	type variant struct {
		codec string
		st    store.MaskStore
	}
	variants := []variant{
		{codec: codecLabel(d.Store.Codec()), st: d.Store},
		{codec: codecLabel(rleSt.Codec()), st: rleSt},
	}

	ex := d.Exec
	rep := &CompressReport{Report: NewReport(fmt.Sprintf(
		"Compress — raw vs rle storage on %s (%d queries per family, %d workers)",
		d.Params.Name, n, ex.EffectiveWorkers()))}
	rep.Printf("%-12s %8s %12s %10s %12s %8s\n", "phase", "codec", "ns total", "masks", "bytes", "x raw")

	ids := d.Cat.MaskIDs(nil)
	groups := d.Cat.GroupByImage(nil)
	w, h := d.Params.W, d.Params.H
	cfg, err := d.SmallConfig().Normalize()
	if err != nil {
		return nil, err
	}

	type family struct {
		name string
		run  func(env *core.Env, rng *rand.Rand) ([]core.Scored, []int64, error)
	}
	families := []family{
		{"Filter", func(env *core.Env, rng *rand.Rand) ([]core.Scored, []int64, error) {
			q := workload.RandomFilter(rng, d.Cat, w, h, ids)
			out, _, err := core.Filter(ctx, env, q.Targets, q.Terms(d.Cat), q.Pred())
			return nil, out, err
		}},
		{"TopK", func(env *core.Env, rng *rand.Rand) ([]core.Scored, []int64, error) {
			q := workload.RandomTopK(rng, w, h, ids)
			out, _, err := core.TopK(ctx, env, q.Targets, q.Terms(), 0, q.K, q.Order)
			return out, nil, err
		}},
		{"Aggregation", func(env *core.Env, rng *rand.Rand) ([]core.Scored, []int64, error) {
			q := workload.RandomAgg(rng, w, h, groups)
			out, _, err := core.AggTopK(ctx, env, q.Groups, q.Terms(), 0, core.Mean, q.K, q.Order)
			return out, nil, err
		}},
	}

	// Per-family reference results (from the raw variant) and per-codec
	// byte totals for the cross-codec assertions.
	refRanked := map[string][][]core.Scored{}
	refIDs := map[string][][]int64{}
	loadBytes := map[string]int64{}
	queryBytes := map[string]int64{}
	rawNs := map[string]int64{} // phase → the raw variant's wall time

	for _, v := range variants {
		raw := v.st == d.Store
		// vsRaw records a phase's wall time on the raw variant (which
		// runs first) and returns the ratio to it on the rle variant.
		vsRaw := func(phase string, el time.Duration) float64 {
			if raw {
				rawNs[phase] = el.Nanoseconds()
				return 1
			}
			return float64(el.Nanoseconds()) / float64(max(1, rawNs[phase]))
		}

		// Layout footprint.
		stored, logical := v.st.StoredBytes(), v.st.DataBytes()
		row := CompressRow{
			Exp: "compress/layout", Dataset: d.Params.Name, Codec: v.codec, Family: "layout",
			StoredBytes: stored, DataBytes: logical, Identical: true,
		}
		if stored > 0 {
			row.Ratio = float64(logical) / float64(stored)
		}
		rep.Rows = append(rep.Rows, row)
		rep.Printf("%-12s %8s stored %d of %d logical bytes (%.2fx)\n",
			"layout", v.codec, stored, logical, row.Ratio)

		// CHI build from this codec's own masks: the raw store scans
		// bytes, the RLE store folds runs — the CHIs must come out
		// identical, which the query phase then relies on.
		ix := core.NewMemoryIndex(cfg)
		v.st.ResetStats()
		start := time.Now()
		if _, err := core.IndexAll(ctx, v.st, ix, ids, ex); err != nil {
			return nil, fmt.Errorf("bench: compress index build (%s): %w", v.codec, err)
		}
		el := time.Since(start)
		rs := v.st.Stats()
		wall := vsRaw("index-build", el)
		rep.Rows = append(rep.Rows, CompressRow{
			Exp: "compress/index-build", Dataset: d.Params.Name, Codec: v.codec, Family: "index-build",
			Workers: ex.EffectiveWorkers(), NsTotal: el.Nanoseconds(),
			MasksLoaded: rs.MasksLoaded, BytesRead: rs.BytesRead, WallVsRaw: wall, Identical: true,
		})
		rep.Printf("%-12s %8s %12d %10d %12d %8.2f\n", "index-build", v.codec, el.Nanoseconds(), rs.MasksLoaded, rs.BytesRead, wall)

		// Whole-mask load loop: per-mask load latency and bytes. The
		// RLE store hands back compressed-backed masks, so its bytes
		// are the stream sizes, not w*h.
		v.st.ResetStats()
		start = time.Now()
		for _, id := range ids {
			m, err := v.st.LoadMask(id)
			if err != nil {
				return nil, fmt.Errorf("bench: compress load (%s): %w", v.codec, err)
			}
			v.st.ReleaseMask(m)
		}
		el = time.Since(start)
		rs = v.st.Stats()
		loadBytes[v.codec] = rs.BytesRead
		wall = vsRaw("load", el)
		rep.Rows = append(rep.Rows, CompressRow{
			Exp: "compress/load", Dataset: d.Params.Name, Codec: v.codec, Family: "load",
			Queries: len(ids), NsTotal: el.Nanoseconds(),
			MasksLoaded: rs.MasksLoaded, BytesRead: rs.BytesRead,
			LoadNsPerMask: el.Nanoseconds() / int64(max(1, len(ids))), WallVsRaw: wall, Identical: true,
		})
		rep.Printf("%-12s %8s %12d %10d %12d %8.2f (%d ns/mask)\n",
			"load", v.codec, el.Nanoseconds(), rs.MasksLoaded, rs.BytesRead, wall,
			el.Nanoseconds()/int64(max(1, len(ids))))

		// Query families, byte-identical to the raw reference.
		env := &core.Env{Loader: v.st, Index: ix, Exec: ex}
		for _, f := range families {
			rng := rand.New(rand.NewSource(seed))
			v.st.ResetStats()
			start := time.Now()
			identical := true
			for i := 0; i < n; i++ {
				ranked, idsOut, err := f.run(env, rng)
				if err != nil {
					return nil, fmt.Errorf("bench: compress %s/%s: %w", f.name, v.codec, err)
				}
				if raw {
					refRanked[f.name] = append(refRanked[f.name], ranked)
					refIDs[f.name] = append(refIDs[f.name], idsOut)
				} else if !equalIDs(idsOut, refIDs[f.name][i]) || !equalScored(ranked, refRanked[f.name][i]) {
					return nil, fmt.Errorf("bench: compress %s query %d: %s results diverge from raw — codecs must be byte-identical",
						f.name, i, v.codec)
				}
			}
			el := time.Since(start)
			rs := v.st.Stats()
			queryBytes[v.codec] += rs.BytesRead
			wall := vsRaw(f.name, el)
			rep.Rows = append(rep.Rows, CompressRow{
				Exp: "compress/" + f.name, Dataset: d.Params.Name, Codec: v.codec, Family: f.name,
				Workers: ex.EffectiveWorkers(), Queries: n, NsTotal: el.Nanoseconds(),
				MasksLoaded: rs.MasksLoaded, BytesRead: rs.BytesRead, WallVsRaw: wall, Identical: identical,
			})
			rep.Printf("%-12s %8s %12d %10d %12d %8.2f\n", f.name, v.codec, el.Nanoseconds(), rs.MasksLoaded, rs.BytesRead, wall)
		}
	}

	if rleSt.StoredBytes() >= d.Store.StoredBytes() {
		return nil, fmt.Errorf("bench: compress: rle stores %d bytes, not below raw's %d",
			rleSt.StoredBytes(), d.Store.StoredBytes())
	}
	if loadBytes["rle"] >= loadBytes["raw"] {
		return nil, fmt.Errorf("bench: compress: rle load phase read %d bytes, not below raw's %d",
			loadBytes["rle"], loadBytes["raw"])
	}
	if queryBytes["raw"] > 0 && queryBytes["rle"] >= queryBytes["raw"] {
		return nil, fmt.Errorf("bench: compress: rle query phase read %d bytes, not below raw's %d",
			queryBytes["rle"], queryBytes["raw"])
	}
	rep.Printf("compression: %.2fx stored, load bytes raw/rle = %.2fx, results byte-identical across codecs\n",
		float64(d.Store.DataBytes())/float64(max(int64(1), rleSt.StoredBytes())),
		float64(loadBytes["raw"])/float64(max(int64(1), loadBytes["rle"])))
	return rep, nil
}
