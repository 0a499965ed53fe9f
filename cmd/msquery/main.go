// Command msquery runs SQL against a mask database and prints the
// results together with the filter–verification statistics. Several
// statements — separate arguments and/or one argument with
// ';'-separated statements (split with the msquery lexer, so a ';'
// inside a string literal is safe) — run as one batch through
// DB.QueryBatch: each statement executes exactly as it would alone,
// while the batch loads each mask several statements need once per
// round (and, with -cache-bytes, shares the store's mask cache).
//
// A statement may hold `?` placeholders; -args binds them. Binding
// applies to a single statement only (a multi-statement batch always
// runs through QueryBatch, which takes literal statements). -first N
// streams a single statement through Stmt.Rows and stops after N
// rows, skipping the unscanned tail's mask loads.
//
// Usage:
//
//	msquery -db data/wilds-sim "SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 2000 AND model_id = 1"
//	msquery -db data/wilds-sim -eager-index "SELECT image_id, MEAN(CP(mask, object, 0.8, 1.0)) AS a FROM masks GROUP BY image_id ORDER BY a DESC LIMIT 25"
//	msquery -db data/wilds-sim -args "0.8,1.0,2000" "SELECT mask_id FROM masks WHERE CP(mask, object, ?, ?) > ?"
//	msquery -db data/wilds-sim -first 10 "SELECT mask_id FROM masks WHERE CP(mask, full, 0.6, 1.0) > 500"
//	msquery -db data/wilds-sim -cache-bytes -1 \
//	    "SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 2000; \
//	     SELECT mask_id FROM masks WHERE CP(mask, object, 0.6, 1.0) > 3000"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"masksearch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msquery: ")

	var (
		dbDir   = flag.String("db", "", "database directory (required)")
		eager   = flag.Bool("eager-index", false, "build the full index before the query (vanilla MaskSearch)")
		noSave  = flag.Bool("no-persist", false, "do not persist incrementally built indexes on exit")
		maxRows = flag.Int("max-rows", 50, "print at most this many result rows")
		explain = flag.Bool("explain", false, "print the compiled plan(s) instead of executing (with -args: the bound plans)")
		workers = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
		cacheB  = flag.Int64("cache-bytes", 0, "mask cache budget in bytes (0 = no cache, -1 = unbounded)")
		argList = flag.String("args", "", "comma-separated numeric values bound to each statement's ? placeholders")
		first   = flag.Int("first", 0, "stream the (single) statement and stop after this many rows (0 = off)")
	)
	flag.Parse()
	var sqls []string
	for _, arg := range flag.Args() {
		stmts, err := masksearch.SplitStatements(arg)
		if err != nil {
			log.Fatal(err)
		}
		sqls = append(sqls, stmts...)
	}
	if *dbDir == "" || len(sqls) == 0 {
		fmt.Fprintln(os.Stderr, "usage: msquery -db DIR [flags] \"SELECT ...\" [\"SELECT ...\" ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	args, err := parseArgs(*argList)
	if err != nil {
		log.Fatal(err)
	}

	db, err := masksearch.OpenWith(*dbDir, masksearch.Options{
		EagerIndex:          *eager,
		PersistIndexOnClose: !*noSave,
		Workers:             *workers,
		CacheBytes:          *cacheB,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			log.Print(err)
		}
	}()

	if *explain {
		for _, sql := range sqls {
			desc, err := db.Explain(sql, argsFor(db, sql, args)...)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(desc)
		}
		return
	}

	if *first > 0 {
		if len(sqls) != 1 {
			log.Fatal("-first streams a single statement")
		}
		streamFirst(db, sqls[0], args, *first, *cacheB)
		return
	}

	start := time.Now()
	var results []*masksearch.Result
	if len(sqls) == 1 {
		res, err := db.Query(context.Background(), sqls[0], argsFor(db, sqls[0], args)...)
		if err != nil {
			log.Fatal(err)
		}
		results = []*masksearch.Result{res}
	} else {
		if len(args) > 0 {
			// Per-statement binding would have to bypass QueryBatch and
			// give up its load sharing; refuse rather than degrade.
			log.Fatal("-args binds a single statement (a multi-statement batch takes literal statements)")
		}
		if results, err = db.QueryBatch(context.Background(), sqls); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	for i, res := range results {
		if len(results) > 1 {
			fmt.Printf("-- statement %d --\n", i+1)
		}
		printResult(res, *maxRows)
	}
	printReadStats(db, elapsed, *cacheB)
}

// parseArgs parses the -args flag into bind values.
func parseArgs(list string) ([]any, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []any
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("-args: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// argsFor returns args when the statement has placeholders, nothing
// otherwise — so mixing parameterized and literal statements in one
// invocation works.
func argsFor(db *masksearch.DB, sql string, args []any) []any {
	st, err := db.Prepare(sql)
	if err != nil || st.NumParams() == 0 {
		return nil
	}
	return args
}

// streamFirst runs one statement through the streaming API, printing
// rows as they are decided and stopping after n.
func streamFirst(db *masksearch.DB, sql string, args []any, n int, cacheB int64) {
	start := time.Now()
	printed := 0
	var firstRow time.Duration
	for row, err := range db.Rows(context.Background(), sql, argsFor(db, sql, args)...) {
		if err != nil {
			log.Fatal(err)
		}
		if printed == 0 {
			firstRow = time.Since(start)
		}
		printed++
		fmt.Printf("%4d. id=%-8d score=%g\n", printed, row.ID, row.Score)
		if printed >= n {
			break
		}
	}
	fmt.Printf("streamed %d row(s), first after %s\n", printed, firstRow.Round(time.Microsecond))
	printReadStats(db, time.Since(start), cacheB)
}

func printReadStats(db *masksearch.DB, elapsed time.Duration, cacheB int64) {
	rs := db.ReadStats()
	fmt.Printf("total: %s   store reads: %d masks, %d bytes",
		elapsed.Round(time.Microsecond), rs.MasksLoaded, rs.BytesRead)
	if cacheB != 0 {
		fmt.Printf("   cache: %d hits, %d misses, %d evicted", rs.CacheHits, rs.CacheMisses, rs.CacheEvicted)
	}
	fmt.Println()
}

func printResult(res *masksearch.Result, maxRows int) {
	fmt.Printf("plan: %s\n", res.Kind)
	fmt.Printf("stats: %s\n", res.Stats)
	switch {
	case len(res.Ranked) > 0:
		fmt.Printf("%d ranked results:\n", len(res.Ranked))
		for i, r := range res.Ranked {
			if i >= maxRows {
				fmt.Printf("... (%d more)\n", len(res.Ranked)-i)
				break
			}
			fmt.Printf("%4d. id=%-8d score=%g\n", i+1, r.ID, r.Score)
		}
	default:
		fmt.Printf("%d matching ids:\n", len(res.IDs))
		var b strings.Builder
		for i, id := range res.IDs {
			if i >= maxRows {
				fmt.Fprintf(&b, "... (%d more)", len(res.IDs)-i)
				break
			}
			fmt.Fprintf(&b, "%d ", id)
		}
		fmt.Println(b.String())
	}
}
