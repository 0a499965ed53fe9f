// Command msinspect prints diagnostics for a mask database or a single
// mask: catalog summaries, per-mask statistics, value histograms, an
// ASCII heat-map rendering, and the CHI bound quality for a given
// query shape. It is the debugging companion to msquery.
//
// Usage:
//
//	msinspect -db data/wilds-sim                      # dataset summary
//	msinspect -db data/wilds-sim -mask 17             # one mask, rendered
//	msinspect -db data/wilds-sim -mask 17 -lo 0.6     # plus CHI bounds
//	msinspect -db data/wilds-sim -rows -offset 100 -limit 20 -header
//	msinspect -topology nodes.json                    # distributed cluster health
//
// -rows dumps the catalog as TSV, one mask per line, in id order —
// including masks still WAL-resident after online ingestion, whose
// location column names the segment file holding them. -offset skips
// that many rows (an offset past the end prints nothing and exits 0; a
// negative offset is a usage error, exit 2) and a negative -limit means
// all remaining rows.
//
// A corrupt catalog.bin fails the open (exit 1) with an error naming the
// bad row. A segment without catalog.bin, as earlier versions wrote
// them, fails it too, naming the file: such a dataset must be
// regenerated.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"masksearch"
	"masksearch/internal/dist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msinspect: ")

	var (
		dbDir    = flag.String("db", "", "database directory (required)")
		maskID   = flag.Int64("mask", 0, "inspect one mask id (0 = dataset summary)")
		lo       = flag.Float64("lo", 0.6, "value-range lower bound for CHI bound check")
		hi       = flag.Float64("hi", 1.0, "value-range upper bound for CHI bound check")
		width    = flag.Int("render-width", 48, "ASCII rendering width in characters")
		rows     = flag.Bool("rows", false, "dump catalog rows as TSV instead of the summary")
		offset   = flag.Int("offset", 0, "-rows: skip this many rows (negative = usage error)")
		limit    = flag.Int("limit", -1, "-rows: print at most this many rows (negative = all)")
		header   = flag.Bool("header", false, "-rows: print a column-name header line first")
		topology = flag.String("topology", "", "probe the nodes of this topology file and print cluster health")
		probeTO  = flag.Duration("probe-timeout", 2*time.Second, "-topology: per-node probe timeout")
	)
	flag.Parse()
	if *topology != "" {
		// Cluster health needs no local database: every fact comes from
		// the topology file and the nodes' own hello responses.
		os.Exit(inspectTopology(*topology, *probeTO))
	}
	if *dbDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *rows && *offset < 0 {
		log.Printf("-offset must be >= 0, got %d", *offset)
		os.Exit(2)
	}
	db, err := masksearch.OpenWith(*dbDir, masksearch.Options{PersistIndexOnClose: false})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if *rows {
		// No stats footer here: -rows output is machine-readable TSV.
		dumpRows(db, *offset, *limit, *header)
		return
	}
	// Runs before db.Close: account every byte this inspection cost,
	// including what the store's mask cache absorbed; on a sharded
	// database, also how the traffic split across shards. One unified
	// snapshot covers the store, the plan cache and the index.
	defer func() {
		st := db.Stats()
		rs := st.Reads
		fmt.Printf("\nstore reads: %d masks, %d bytes (cache: %d hits, %d misses, %d evicted)\n",
			rs.MasksLoaded, rs.BytesRead, rs.CacheHits, rs.CacheMisses, rs.CacheEvicted)
		if st.Shards > 1 {
			for i, srs := range st.ShardReads {
				fmt.Printf("  shard %03d: %d masks, %d bytes\n",
					i, srs.MasksLoaded, srs.BytesRead)
			}
		}
		fmt.Printf("plan cache: %d entries, %d hits, %d misses\n",
			st.PlanCache.Entries, st.PlanCache.Hits, st.PlanCache.Misses)
	}()

	if *maskID == 0 {
		summarize(db)
		return
	}
	inspectMask(db, *maskID, *lo, *hi, *width)
}

// inspectTopology probes every node of a topology file and prints
// cluster health: per-node liveness with the dataset each live node
// opened, then per-shard routing with primary/replica roles. Exit
// status 0 when every node answered, 1 otherwise — scripts can gate a
// rollout on it.
func inspectTopology(path string, timeout time.Duration) int {
	topo, err := dist.LoadTopology(path)
	if err != nil {
		log.Print(err)
		return 1
	}
	health := dist.ProbeNodes(context.Background(), topo, timeout)
	up := make(map[string]bool, len(health))
	fmt.Printf("topology %s: %d node(s), %d shard route(s)\n\nnodes:\n", path, len(topo.Nodes), len(topo.Shards))
	dead := 0
	for _, h := range health {
		if h.Err != nil {
			dead++
			fmt.Printf("  %-12s %-21s DOWN  %v\n", h.Node.Name, h.Node.Addr, h.Err)
			continue
		}
		up[h.Node.Name] = true
		codec := h.Res.Codec
		if codec == "" {
			codec = "raw"
		}
		fmt.Printf("  %-12s %-21s up    %d masks %dx%d, %d shard(s), codec %s, wire v%d, boot %s\n",
			h.Node.Name, h.Node.Addr, h.Res.NumMasks, h.Res.MaskW, h.Res.MaskH, h.Res.Shards, codec, h.Res.Wire, h.Res.BootID)
	}
	fmt.Printf("\nshard routes (first = primary):\n")
	for _, r := range topo.Shards {
		var parts []string
		for i, name := range r.Nodes {
			role := "replica"
			if i == 0 {
				role = "primary"
			}
			state := "up"
			if !up[name] {
				state = "DOWN"
			}
			parts = append(parts, fmt.Sprintf("%s (%s, %s)", name, role, state))
		}
		live := 0
		for _, name := range r.Nodes {
			if up[name] {
				live++
			}
		}
		warn := ""
		if live == 0 {
			warn = "  <- NO LIVE ROUTE"
		}
		fmt.Printf("  shard %3d: %s%s\n", r.Shard, strings.Join(parts, ", "), warn)
	}
	if dead > 0 {
		fmt.Printf("\n%d of %d node(s) down\n", dead, len(topo.Nodes))
		return 1
	}
	return 0
}

// dumpRows prints catalog rows as TSV in id order: the metadata the
// catalog holds plus where each mask's pixels currently live ("base"
// for the compacted layout, "wal:<segment>" for masks appended online
// and not yet compacted). Output goes through one buffered writer so a
// full-catalog dump isn't one syscall per row.
func dumpRows(db *masksearch.DB, offset, limit int, header bool) {
	entries := db.Entries()
	if offset > len(entries) {
		offset = len(entries)
	}
	entries = entries[offset:]
	if limit >= 0 && limit < len(entries) {
		entries = entries[:limit]
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if header {
		fmt.Fprintln(w, "index\tmask_id\timage_id\tmodel_id\tmask_type\tlabel\tpred\tmodified\tobject\tlocation")
	}
	for i, e := range entries {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%t\t%d,%d,%d,%d\t%s\n",
			offset+i, e.MaskID, e.ImageID, e.ModelID, e.MaskType, e.Label, e.Pred, e.Modified,
			e.Object.X0, e.Object.Y0, e.Object.X1, e.Object.Y1, db.MaskLocation(e.MaskID))
	}
}

// summarize prints dataset-level statistics.
func summarize(db *masksearch.DB) {
	entries := db.Entries()
	fmt.Printf("masks: %d\n", len(entries))
	if s := db.Shards(); s > 1 {
		fmt.Printf("storage: %d shards\n", s)
	}
	dbStats := db.Stats()
	if c := db.Codec(); c != "" {
		stored := db.StoredBytes()
		logical := dbStats.Index.DataBytes
		line := fmt.Sprintf("codec: %s (%.1f MB stored", c, float64(stored)/1e6)
		if stored > 0 {
			line += fmt.Sprintf(", %.2fx compression", float64(logical)/float64(stored))
		}
		if dbStats.GenVersion > 0 {
			line += fmt.Sprintf(", gen v%d", dbStats.GenVersion)
		}
		fmt.Println(line + ")")
	} else if dbStats.GenVersion > 0 {
		fmt.Printf("codec: raw, gen v%d\n", dbStats.GenVersion)
	}
	images := map[int64]bool{}
	models := map[int]int{}
	types := map[int]int{}
	var mispredicted, modified int
	for _, e := range entries {
		images[e.ImageID] = true
		models[e.ModelID]++
		types[e.MaskType]++
		if e.Pred != e.Label {
			mispredicted++
		}
		if e.Modified {
			modified++
		}
	}
	fmt.Printf("images: %d\n", len(images))
	fmt.Printf("masks per model: %v\n", models)
	fmt.Printf("masks per type: %v\n", types)
	fmt.Printf("mispredicted masks: %d (%.1f%%)\n", mispredicted, 100*float64(mispredicted)/float64(len(entries)))
	fmt.Printf("modified (adversarial) masks: %d\n", modified)
	if s, err := db.IndexStats(); err == nil {
		fmt.Printf("index: %d masks indexed, %.1f MB (%.1f%% of %.1f MB data)\n",
			s.IndexedMasks, float64(s.IndexBytes)/1e6, 100*s.Fraction, float64(s.DataBytes)/1e6)
		switch {
		case s.FileError != "":
			fmt.Printf("index file: %s discarded: %s\n", s.File, s.FileError)
		case s.File != "":
			fmt.Printf("index file: %s (arena, %d entries)\n", s.File, s.FileEntries)
		default:
			fmt.Println("index file: none")
		}
	}
}

// inspectMask prints one mask's metadata, statistics, histogram, an
// ASCII rendering, and — if the mask is indexed after an eager build —
// the CHI bound versus the exact CP over the object box.
func inspectMask(db *masksearch.DB, id int64, lo, hi float64, renderW int) {
	e, err := db.Entry(id)
	if err != nil {
		log.Fatal(err)
	}
	m, err := db.LoadMask(id)
	if err != nil {
		log.Fatal(err)
	}
	// The deferred argument is evaluated here, so the store gets back
	// the mask it handed out even though m is rebound just below.
	defer db.ReleaseMask(m)
	// Inspection reads every pixel several times (histogram, rendering);
	// decode an RLE-backed mask once instead of run-walking per access.
	m = m.Decoded()
	fmt.Printf("mask %d: image %d, model %d, type %d, %dx%d\n", e.MaskID, e.ImageID, e.ModelID, e.MaskType, m.W, m.H)
	fmt.Printf("label %d, predicted %d, modified %v\n", e.Label, e.Pred, e.Modified)
	fmt.Printf("object box: %v\n", e.Object)

	vr := masksearch.ValueRange{Lo: lo, Hi: hi}
	inBox := masksearch.CP(m, e.Object, vr)
	total := masksearch.CP(m, m.Bounds(), vr)
	fmt.Printf("CP in %v: %d in object box, %d total\n", vr, inBox, total)

	fmt.Println("\nvalue histogram (16 bins):")
	hist := histogram16(m)
	maxCount := 1
	for _, c := range hist {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range hist {
		bar := strings.Repeat("#", c*40/maxCount)
		fmt.Printf("[%.3f,%.3f) %7d %s\n", float64(i)/16, float64(i+1)/16, c, bar)
	}

	fmt.Println("\nrendering (darker = higher value, box = object):")
	fmt.Print(render(m, e.Object, renderW))
}

// histogram16 counts m's pixels into 16 equal-width value bins; a
// saturated pixel lands in the top bin.
func histogram16(m *masksearch.Mask) []int {
	h := make([]int, 16)
	for _, b := range m.Decoded().Bytes {
		h[min(int(float32(b)/255*16), 15)]++
	}
	return h
}

// render draws the mask as ASCII art with the object box outlined.
func render(m *masksearch.Mask, box masksearch.Rect, w int) string {
	if w > m.W {
		w = m.W
	}
	h := w * m.H / m.W / 2 // terminal cells are ~2x taller than wide
	if h < 1 {
		h = 1
	}
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	for ry := 0; ry < h; ry++ {
		for rx := 0; rx < w; rx++ {
			// Average the source region of this character cell.
			x0, x1 := rx*m.W/w, (rx+1)*m.W/w
			y0, y1 := ry*m.H/h, (ry+1)*m.H/h
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if y1 <= y0 {
				y1 = y0 + 1
			}
			var sum float64
			var n int
			onEdge := false
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					sum += float64(m.At(x, y))
					n++
					inside := box.ContainsPoint(x, y)
					edge := inside && (x == box.X0 || x == box.X1-1 || y == box.Y0 || y == box.Y1-1)
					if edge {
						onEdge = true
					}
				}
			}
			if onEdge {
				b.WriteByte('+')
				continue
			}
			if n == 0 {
				// Degenerate cell (possible when the render width
				// exceeds the source region): nothing to average.
				b.WriteByte(' ')
				continue
			}
			// Clamp both ends: an all-1.0 cell indexes one past the
			// shade table, and float error could go below zero.
			idx := int(sum / float64(n) * float64(len(shades)))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
