// Command msserve is the long-running query server: it opens a mask
// database once and serves HTTP/JSON queries over it, keeping the plan
// cache, mask cache and incremental CHI index hot across requests —
// the serving counterpart to the one-shot msquery.
//
// Usage:
//
//	msserve -db data/wilds-sim -addr :8080
//	msserve -db data/wilds-sim -addr :8080 -max-inflight 16 -queue 64 -cache-bytes -1
//	msserve -db data/wilds-sim -addr :8080 -topology nodes.json    # distributed coordinator
//
// Endpoints (see DESIGN.md "Serving" for the request/response shapes):
//
//	POST /query    one statement; {"stream": true} for NDJSON rows
//	POST /batch    {"sqls": [...]} or {"sql": ..., "arg_sets": [[...], ...]}
//	POST /explain  compiled plan without executing
//	POST /ingest   append masks online; acknowledged only after fsync
//	POST /compact  fold the WAL into the base layout now
//	GET  /healthz  liveness
//	GET  /metrics  counters-with-rates JSON
//
// With -compact-every the server folds the WAL into the base layout on
// a timer, keeping recovery cheap on a long-running ingest workload.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, in-flight
// requests drain (bounded by -drain-timeout), and the database closes —
// the DB's close guard waits for in-flight appends, so every
// acknowledged ingest is on disk before the process exits (persisting
// the incrementally grown index unless -no-persist).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"masksearch"
	"masksearch/internal/serve"
)

// eagerUsage is -eager-index's help text; a coordinator holds no index.
const eagerUsage = "build the full CHI index at startup (vanilla MaskSearch); cannot be combined with -topology"

func main() {
	log.SetFlags(0)
	log.SetPrefix("msserve: ")

	var (
		dbDir      = flag.String("db", "", "database directory (required)")
		addr       = flag.String("addr", ":8080", "listen address")
		eager      = flag.Bool("eager-index", false, eagerUsage)
		noSave     = flag.Bool("no-persist", false, "do not persist the incrementally built index on shutdown")
		workers    = flag.Int("workers", 0, "engine worker-pool size per query (0 = GOMAXPROCS, 1 = sequential)")
		cacheB     = flag.Int64("cache-bytes", -1, "mask cache budget in bytes (0 = no cache, -1 = unbounded)")
		planCache  = flag.Int("plan-cache", 0, "plan cache entries (0 = default, -1 = off)")
		inflight   = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = 2x GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth (0 = reject immediately with 429)")
		queueWait  = flag.Duration("queue-wait", time.Second, "max time a queued request waits for a slot")
		timeout    = flag.Duration("timeout", 0, "server-side per-request execution budget (0 = none)")
		sessionTTL = flag.Duration("session-ttl", 15*time.Minute, "idle session expiry")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
		compactEv  = flag.Duration("compact-every", 0, "fold the WAL into the base layout on this interval (0 = only on POST /compact)")
		indexEvery = flag.Int("index-every", 0, "checkpoint the CHI index to disk every N acknowledged ingest batches (0 = only at compact/shutdown)")
		topology   = flag.String("topology", "", "topology file: execute queries through remote msshard nodes (distributed coordinator)")
		hedgeAfter = flag.Duration("hedge-after", 0, "distributed: hedge a shard request to its replica after this delay (0 = adaptive p95, verify at 25ms; negative = off)")
		distRetry  = flag.Int("dist-retries", 0, "distributed: extra failover passes over a shard's route (0 = default 1, negative = off)")
	)
	flag.Parse()
	if *dbDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	db, err := masksearch.OpenWith(*dbDir, masksearch.Options{
		EagerIndex:          *eager,
		PersistIndexOnClose: !*noSave,
		Workers:             *workers,
		CacheBytes:          *cacheB,
		PlanCacheEntries:    *planCache,
		TopologyFile:        *topology,
		Dist: masksearch.DistOptions{
			HedgeAfter: *hedgeAfter,
			Retries:    *distRetry,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if db.Distributed() {
		log.Printf("distributed: executing through topology %s", *topology)
	}

	srv := serve.New(db, serve.Config{
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		QueueWait:      *queueWait,
		RequestTimeout: *timeout,
		SessionTTL:     *sessionTTL,
		IndexEvery:     *indexEvery,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	// Background compaction: fold the WAL on a timer. The loop needs no
	// shutdown plumbing — once the DB closes, Compact returns ErrClosed
	// and the goroutine exits.
	if *compactEv > 0 {
		go func() {
			t := time.NewTicker(*compactEv)
			defer t.Stop()
			for range t.C {
				n, err := db.Compact(context.Background())
				switch {
				case errors.Is(err, masksearch.ErrClosed):
					return
				case err != nil:
					log.Printf("compact: %v", err)
				case n > 0:
					log.Printf("compacted %d masks", n)
				}
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain in-flight requests,
	// then close the DB — whose own close guard drains anything the
	// HTTP layer lost track of before tearing the store down.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(done)
	}()

	log.Printf("serving %s (%d masks, %d shards, %d indexed) on %s",
		*dbDir, len(db.Entries()), db.Shards(), db.Stats().Index.IndexedMasks, *addr)
	fmt.Printf("msserve: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		db.Close()
		log.Fatal(err)
	}
	<-done
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	log.Print("closed cleanly")
}
