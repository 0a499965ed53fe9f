// Command msshard is a shard-service node: it opens a mask dataset and
// answers the coordinator's filter, bounds, verify and rank requests
// for the shards it serves, over the compact length-prefixed TCP
// protocol in internal/dist. A topology-backed msserve (or any DB
// opened with Options.TopologyFile) scatter-gathers query stages across
// a set of these.
//
// Usage:
//
//	msshard -db data/wilds-sim -addr :7101
//	msshard -db data/wilds-sim -addr :7101 -name a -shards 0,2 -metrics-addr :7201
//
// Every node opens the full dataset (shared or replicated filesystem);
// -shards only restricts which shards this node will answer for —
// requests outside it are rejected loudly, so a misrouted topology
// fails instead of silently double-serving. With no -shards the node
// answers for every shard, which is what replica routes rely on.
//
// -metrics-addr serves GET /healthz and GET /metrics (the same
// counters-with-rates JSON shape msserve publishes) on a separate
// listener, keeping the query port free of HTTP.
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// requests drain, then the store closes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"masksearch/internal/core"
	"masksearch/internal/dist"
	"masksearch/internal/metrics"
	"masksearch/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msshard: ")

	var (
		dbDir       = flag.String("db", "", "database directory (required)")
		addr        = flag.String("addr", ":7101", "shard-service listen address")
		name        = flag.String("name", "", "node name as declared in the topology (default: host:port of -addr)")
		shards      = flag.String("shards", "", "comma-separated shard indexes this node serves (empty = all)")
		workers     = flag.Int("workers", 0, "engine worker-pool size per request (0 = GOMAXPROCS)")
		metricsAddr = flag.String("metrics-addr", "", "serve GET /healthz and /metrics on this address (empty = off)")
	)
	flag.Parse()
	if *dbDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	served, err := parseShards(*shards)
	if err != nil {
		log.Fatal(err)
	}

	st, cat, err := store.Open(*dbDir)
	if err != nil {
		log.Fatal(err)
	}

	// Same index granularity the DB facade defaults to, and the same
	// persisted-index reuse: a chi.idx left by a local session or an
	// eager build seeds this node's bounds, read straight into the
	// index's pages (an earlier version's index file is ignored, as if
	// absent). The index only changes load counts, never results, so
	// nodes with different index states still answer identically; a
	// discarded file is logged with its reason.
	cfg, err := core.Config{
		CellW: max(2, st.MaskW()/4), CellH: max(2, st.MaskH()/4),
		Edges: core.DefaultEdges(10),
	}.Normalize()
	if err != nil {
		st.Close()
		log.Fatal(err)
	}
	loadStart := time.Now()
	idx, from, err := store.LoadIndex(*dbDir, cfg)
	switch {
	case err != nil:
		log.Printf("discarded the persisted index, starting empty: %v", err)
	case from != "":
		log.Printf("restored %d index entries from %s in %.1f ms", idx.Len(), from, time.Since(loadStart).Seconds()*1e3)
	}

	if *name == "" {
		*name = *addr
	}
	node := dist.NewNode(*name, st, cat, idx, *workers, served)
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		st.Close()
		log.Fatal(err)
	}

	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, node, st)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down", s)
		node.Close() // closes the listener and drains in-flight requests
	}()

	which := "all shards"
	if len(served) > 0 {
		which = fmt.Sprintf("shards %v", served)
	}
	log.Printf("node %q serving %s of %s (%d masks, %d indexed) on %s",
		*name, which, *dbDir, st.NumMasks(), idx.Len(), lis.Addr())
	if err := node.Serve(lis); err != nil {
		st.Close()
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	log.Print("closed cleanly")
}

// parseShards parses the -shards list ("0,2,5").
func parseShards(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -shards entry %q (want non-negative integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// serveMetrics publishes the node's serving counters and its store's
// read counters, with per-second rates against the previous scrape.
func serveMetrics(addr string, node *dist.Node, st store.MaskStore) {
	started := time.Now()
	var scrape metrics.Scraper
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		ns := node.Stats()
		rs := st.Stats()
		// Conns counts connections, each kept for many requests; the
		// per-kind counters (Hellos … Ranks) count requests: a top-k
		// is one rank request per shard, never a verify.
		counters := map[string]float64{
			"msshard.Conns":      float64(ns.Conns),
			"msshard.Hellos":     float64(ns.Hellos),
			"msshard.Filters":    float64(ns.Filters),
			"msshard.Bounds":     float64(ns.Bounds),
			"msshard.Verifies":   float64(ns.Verifies),
			"msshard.Ranks":      float64(ns.Ranks),
			"msshard.Errors":     float64(ns.Errors),
			"msshard.TauRecv":    float64(ns.TauRecv),
			"msshard.ScoresSent": float64(ns.ScoresSent),
			"msshard.BytesIn":    float64(ns.BytesIn),
			"msshard.BytesOut":   float64(ns.BytesOut),

			"msshard.store.MasksLoaded": float64(rs.MasksLoaded),
			"msshard.store.RegionReads": float64(rs.RegionReads),
			"msshard.store.BytesRead":   float64(rs.BytesRead),
			"msshard.store.CacheHits":   float64(rs.CacheHits),
			"msshard.store.CacheMisses": float64(rs.CacheMisses),
		}
		now := time.Now()
		gauges := map[string]float64{"msshard.UptimeSeconds": now.Sub(started).Seconds()}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(scrape.Scrape(started, now, counters, gauges))
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("metrics listener: %v", err)
	}
}
