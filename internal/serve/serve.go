// Package serve is the long-running query daemon over a masksearch
// DB: an HTTP/JSON API that keeps the plan cache, mask cache and CHI
// index hot across requests from many clients. It adds the serving
// concerns the one-shot CLIs never needed — named sessions with
// prepared-statement reuse, admission control bounding in-flight work
// (reject-with-429 or a bounded wait queue), per-request timeouts and
// cancellation threaded to the verification loops, chunked NDJSON
// streaming backed by Stmt.Rows, and a /metrics endpoint publishing
// every engine counter with per-scrape rates (the square/inspect
// `-server` JSON shape).
//
// Endpoints:
//
//	POST /query    {"sql", "args", "session", "stream", "timeout_ms"}
//	POST /batch    {"sqls": [...]} or {"sql", "arg_sets": [[...], ...]}
//	POST /explain  {"sql", "args"}
//	POST /ingest   {"masks": [{..., "pixels": base64}, ...]} — ack after fsync
//	POST /compact  fold the WAL into the base layout
//	GET  /healthz
//	GET  /metrics
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"masksearch"
	"masksearch/internal/metrics"
)

// statusClientClosedRequest mirrors nginx's non-standard 499: the
// client disconnected before the response; nothing useful can be sent,
// but the status keeps access logs and metrics honest.
const statusClientClosedRequest = 499

// Config tunes one Server. The zero value serves with sane defaults
// (see withDefaults).
type Config struct {
	// MaxInflight bounds how many /query and /batch requests execute
	// concurrently. 0 defaults to 2×GOMAXPROCS.
	MaxInflight int
	// QueueDepth is the bounded admission queue: requests arriving
	// with every execution slot taken wait here for up to QueueWait.
	// 0 (the default) rejects immediately with 429.
	QueueDepth int
	// QueueWait caps how long a queued request waits for a slot before
	// being rejected. 0 defaults to 1s. Only meaningful with QueueDepth > 0.
	QueueWait time.Duration
	// RequestTimeout is the server-side execution budget per request;
	// a request's own timeout_ms can only shorten it. 0 means no
	// server-imposed deadline.
	RequestTimeout time.Duration
	// SessionTTL expires sessions idle longer than this. 0 defaults to
	// 15 minutes; negative disables expiry.
	SessionTTL time.Duration
	// MaxSessions caps live sessions; beyond it the least-recently-used
	// session is evicted. 0 defaults to 1024.
	MaxSessions int
	// IndexEvery checkpoints the CHI index to disk after every N
	// acknowledged /ingest batches (DB.CheckpointIndex), bounding how
	// much index work a crash can lose between compactions. 0 (the
	// default) disables the periodic checkpoint; the index is still
	// persisted at Compact and Close.
	IndexEvery int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// Server is the HTTP query daemon over one DB. It implements
// http.Handler; wire it into an http.Server (cmd/msserve) or an
// httptest.Server (benchmarks, tests). The Server owns no goroutines
// and holds no resources beyond its DB, so it needs no Close — shut
// down the http.Server around it, then close the DB (whose close
// guard drains any request still executing).
type Server struct {
	db       *masksearch.DB
	cfg      Config
	adm      *admission
	sessions *sessionManager
	mux      *http.ServeMux
	started  time.Time

	c      counters
	scrape metrics.Scraper

	// onAdmitted, when set (tests), runs inside every /query and
	// /batch request right after admission — letting a test hold a
	// request's execution slot open deterministically.
	onAdmitted func()
}

// New builds a Server over db. The DB should be opened with whatever
// Workers/CacheBytes/PlanCacheEntries options suit the deployment;
// the server adds no per-request options of its own.
func New(db *masksearch.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:       db,
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait),
		sessions: newSessionManager(cfg.SessionTTL, cfg.MaxSessions),
		started:  time.Now(),
	}
	s.c.latency = metrics.NewWindow(latencyWindow, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryRequest is the /query body. Args bind the statement's `?`
// placeholders in source order (numbers only — the dialect's value
// domain). Naming a session pins the prepared statement in that
// session for reuse by later requests.
type queryRequest struct {
	SQL       string `json:"sql"`
	Args      []any  `json:"args,omitempty"`
	Session   string `json:"session,omitempty"`
	Stream    bool   `json:"stream,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// DegradedOK opts this query into partial results on a distributed
	// server: when a shard has no live route the response is flagged
	// degraded instead of failing 503. No-op on a local server.
	DegradedOK bool `json:"degraded_ok,omitempty"`
}

// batchRequest is the /batch body, in one of two forms: SQLs runs
// placeholder-free statements as one DB.QueryBatch (each statement
// executed as by /query, mask loads shared across them), SQL+ArgSets
// runs one parameterized statement over every argument set as one
// Stmt.QueryBatch sweep.
type batchRequest struct {
	SQLs      []string `json:"sqls,omitempty"`
	SQL       string   `json:"sql,omitempty"`
	ArgSets   [][]any  `json:"arg_sets,omitempty"`
	Session   string   `json:"session,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	// DegradedOK opts the whole batch into partial results on a
	// distributed server (see queryRequest.DegradedOK).
	DegradedOK bool `json:"degraded_ok,omitempty"`
}

type explainRequest struct {
	SQL     string `json:"sql"`
	Args    []any  `json:"args,omitempty"`
	Session string `json:"session,omitempty"`
}

// statsJSON mirrors core.Stats for the wire.
type statsJSON struct {
	Targets          int     `json:"targets"`
	IndexHits        int     `json:"index_hits"`
	AcceptedByBounds int     `json:"accepted_by_bounds"`
	RejectedByBounds int     `json:"rejected_by_bounds"`
	Loaded           int     `json:"loaded"`
	FML              float64 `json:"fml"`
}

type scoredJSON struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// queryResponse is one materialized query result: IDs for filter
// plans, Ranked for topk/aggregation plans, never both.
type queryResponse struct {
	Kind    string       `json:"kind"`
	IDs     []int64      `json:"ids,omitempty"`
	Ranked  []scoredJSON `json:"ranked,omitempty"`
	Rows    int          `json:"rows"`
	Stats   statsJSON    `json:"stats"`
	Session string       `json:"session,omitempty"`
	// Degraded marks a partial answer from a distributed server that
	// lost MissingShards' every route; only possible when the request
	// set degraded_ok.
	Degraded      bool  `json:"degraded,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

type batchResponse struct {
	Results []queryResponse `json:"results"`
	Session string          `json:"session,omitempty"`
}

// streamRow, streamDone and streamError are the NDJSON stream lines: a
// row per decided result (score is meaningful for ranking plans), one
// done line closing a successful stream, an error line aborting it.
type streamRow struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

type streamDone struct {
	Done bool `json:"done"`
	Rows int  `json:"rows"`
}

type streamError struct {
	Error string `json:"error"`
}

func toResponse(res *masksearch.Result, session string) queryResponse {
	out := queryResponse{
		Kind: res.Kind.String(),
		IDs:  res.IDs,
		Stats: statsJSON{
			Targets:          res.Stats.Targets,
			IndexHits:        res.Stats.IndexHits,
			AcceptedByBounds: res.Stats.AcceptedByBounds,
			RejectedByBounds: res.Stats.RejectedByBounds,
			Loaded:           res.Stats.Loaded,
			FML:              res.Stats.FML(),
		},
		Session: session,
	}
	if res.Ranked != nil {
		out.Ranked = make([]scoredJSON, len(res.Ranked))
		for i, r := range res.Ranked {
			out.Ranked[i] = scoredJSON{ID: r.ID, Score: r.Score}
		}
	}
	out.Degraded = res.Degraded
	out.MissingShards = res.MissingShards
	out.Rows = len(out.IDs) + len(out.Ranked)
	return out
}

// decode reads one JSON request body (bounded at 1 MiB).
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeBounded(w, r, v, 1<<20)
}

// decodeBounded is decode with an explicit body cap (ingest bodies
// carry pixel payloads and need more headroom than query bodies).
func decodeBounded(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// statusFor maps an execution error to its HTTP status.
func statusFor(err error) int {
	var pe *masksearch.ParseError
	var be *masksearch.BindError
	switch {
	case errors.Is(err, errRejected):
		return http.StatusTooManyRequests
	case errors.As(err, &pe), errors.As(err, &be):
		return http.StatusBadRequest
	case errors.Is(err, masksearch.ErrReadOnly):
		// Appending to a read-only layout is the client targeting the
		// wrong database, not a server fault — 400, and the wrapped
		// message already carries the layout and the remedy.
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, masksearch.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, masksearch.ErrShardUnavailable):
		// The query was valid; the cluster was not — a retryable
		// availability condition, not a server bug.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// countStatus feeds the error-class counters for one response status.
func (s *Server) countStatus(status int) {
	switch {
	case status == http.StatusGatewayTimeout:
		s.c.timeouts.Add(1)
		s.c.serverErrs.Add(1)
	case status == statusClientClosedRequest:
		s.c.cancels.Add(1)
	case status >= 500:
		s.c.serverErrs.Add(1)
	case status >= 400:
		s.c.clientErrs.Add(1)
	}
}

// fail writes the JSON error envelope for err and counts it.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := statusFor(err)
	s.countStatus(status)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// failStatus is fail for request-shape errors with an explicit status.
func (s *Server) failStatus(w http.ResponseWriter, status int, msg string) {
	s.countStatus(status)
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// requestCtx derives the execution context: the client's connection
// context, bounded by the tighter of the server's RequestTimeout and
// the request's own timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		t := time.Duration(timeoutMS) * time.Millisecond
		if d <= 0 || t < d {
			d = t
		}
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// admit runs the admission controller for one executing request; on
// success the caller must invoke the returned release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if err := s.adm.acquire(r.Context()); err != nil {
		s.fail(w, err)
		return nil, false
	}
	if s.onAdmitted != nil {
		s.onAdmitted()
	}
	return s.adm.release, true
}

// prepare resolves sql through the request's session (creating it on
// first use) or, session-less, straight through the DB plan cache.
func (s *Server) prepare(sql, sessionID string) (*masksearch.Stmt, *session, error) {
	sess := s.sessions.get(sessionID, time.Now())
	if sess != nil {
		st, err := sess.prepare(s.db, sql)
		return st, sess, err
	}
	st, err := s.db.Prepare(sql)
	return st, nil, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	var req queryRequest
	if err := decode(w, r, &req); err != nil {
		s.failStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.SQL == "" {
		s.failStatus(w, http.StatusBadRequest, `missing "sql"`)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.c.latency.Observe(time.Since(start)) }()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	stmt, sess, err := s.prepare(req.SQL, req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	if sess != nil {
		sess.queries.Add(1)
	}
	s.c.queries.Add(1)
	args := req.Args
	if req.DegradedOK {
		args = append(append([]any{}, args...), masksearch.WithDegradedResults())
	}
	if req.Stream {
		s.c.streams.Add(1)
		s.streamQuery(w, ctx, stmt, args)
		return
	}
	res, err := stmt.Query(ctx, args...)
	if err != nil {
		s.fail(w, err)
		return
	}
	out := toResponse(res, req.Session)
	s.c.rowsOut.Add(int64(out.Rows))
	writeJSON(w, http.StatusOK, out)
}

// streamQuery serves one query as chunked NDJSON backed by Stmt.Rows:
// filter rows leave the server as the scan decides them, so the first
// row reaches the client long before the scan's tail is read. An error
// before the first row is an ordinary JSON error response; after bytes
// are on the wire it becomes a terminating {"error": ...} line.
func (s *Server) streamQuery(w http.ResponseWriter, ctx context.Context, stmt *masksearch.Stmt, args []any) {
	flusher, _ := w.(http.Flusher)
	var enc *json.Encoder
	rows := 0
	for row, err := range stmt.Rows(ctx, args...) {
		if err != nil {
			if enc == nil {
				s.fail(w, err)
				return
			}
			s.countStatus(statusFor(err))
			enc.Encode(streamError{Error: err.Error()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if enc == nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			enc = json.NewEncoder(w)
		}
		enc.Encode(streamRow{ID: row.ID, Score: row.Score})
		rows++
		if flusher != nil {
			flusher.Flush()
		}
	}
	if enc == nil {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
	}
	s.c.rowsOut.Add(int64(rows))
	enc.Encode(streamDone{Done: true, Rows: rows})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	var req batchRequest
	if err := decode(w, r, &req); err != nil {
		s.failStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	multi := len(req.SQLs) > 0
	sweep := req.SQL != ""
	if multi == sweep {
		s.failStatus(w, http.StatusBadRequest, `exactly one of "sqls" (multi-statement batch) or "sql"+"arg_sets" (parameter sweep) is required`)
		return
	}
	if sweep && len(req.ArgSets) == 0 {
		s.failStatus(w, http.StatusBadRequest, `"sql" batches need "arg_sets"`)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.c.latency.Observe(time.Since(start)) }()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	var opts []masksearch.QueryOpt
	if req.DegradedOK {
		opts = append(opts, masksearch.WithDegradedResults())
	}
	var results []*masksearch.Result
	var err error
	if multi {
		// Touch the session for liveness even though a multi-statement
		// batch binds nothing; its statements still warm the plan cache.
		s.sessions.get(req.Session, time.Now())
		results, err = s.db.QueryBatch(ctx, req.SQLs, opts...)
	} else {
		var stmt *masksearch.Stmt
		var sess *session
		stmt, sess, err = s.prepare(req.SQL, req.Session)
		if err == nil {
			if sess != nil {
				sess.queries.Add(1)
			}
			results, err = stmt.QueryBatch(ctx, req.ArgSets, opts...)
		}
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.c.batches.Add(1)
	s.c.batchStmts.Add(int64(len(results)))
	out := batchResponse{Results: make([]queryResponse, len(results)), Session: req.Session}
	for i, res := range results {
		out.Results[i] = toResponse(res, "")
		s.c.rowsOut.Add(int64(out.Results[i].Rows))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	var req explainRequest
	if err := decode(w, r, &req); err != nil {
		s.failStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.SQL == "" {
		s.failStatus(w, http.StatusBadRequest, `missing "sql"`)
		return
	}
	stmt, _, err := s.prepare(req.SQL, req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	plan, err := stmt.Explain(req.Args...)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.c.explains.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"plan": plan})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mw, mh := s.db.MaskDims()
	ing := s.db.Stats().Ingest
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"uptime_s":     time.Since(s.started).Seconds(),
		"inflight":     s.adm.inflight.Load(),
		"masks":        len(s.db.Entries()),
		"mask_w":       mw,
		"mask_h":       mh,
		"wal_segments": ing.WALSegments,
		"tail_masks":   ing.TailMasks,
	})
}

// handleMetrics publishes every counter the engine and server keep, in
// square/inspect's -server JSON shape: a flat array of typed metrics,
// counters carrying a per-second rate computed against the previous
// scrape. One scrape is one consistent pass over DB.Stats plus the
// server's own accounting.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.sessions.sweep(now)
	ds := s.db.Stats()
	completed, latencyTotal := s.c.latency.Totals()

	cur := map[string]float64{
		"msserve.Requests":        float64(s.c.requests.Load()),
		"msserve.Queries":         float64(s.c.queries.Load()),
		"msserve.Batches":         float64(s.c.batches.Load()),
		"msserve.BatchStatements": float64(s.c.batchStmts.Load()),
		"msserve.Explains":        float64(s.c.explains.Load()),
		"msserve.Streams":         float64(s.c.streams.Load()),
		"msserve.RowsOut":         float64(s.c.rowsOut.Load()),
		"msserve.ClientErrors":    float64(s.c.clientErrs.Load()),
		"msserve.ServerErrors":    float64(s.c.serverErrs.Load()),
		"msserve.Timeouts":        float64(s.c.timeouts.Load()),
		"msserve.Cancels":         float64(s.c.cancels.Load()),
		"msserve.Admitted":        float64(s.adm.admitted.Load()),
		"msserve.Rejected":        float64(s.adm.rejected.Load()),
		"msserve.Queued":          float64(s.adm.queuedTotal.Load()),
		"msserve.QueueTimeouts":   float64(s.adm.queueTimeouts.Load()),
		"msserve.Completed":       float64(completed),
		"msserve.LatencyNsTotal":  float64(latencyTotal.Nanoseconds()),

		"msserve.sessions.Created":  float64(s.sessions.created.Load()),
		"msserve.sessions.Expired":  float64(s.sessions.expired.Load()),
		"msserve.sessions.Evicted":  float64(s.sessions.evicted.Load()),
		"msserve.sessions.StmtHits": float64(s.sessions.stmtHits.Load()),

		"msserve.store.MasksLoaded":  float64(ds.Reads.MasksLoaded),
		"msserve.store.RegionReads":  float64(ds.Reads.RegionReads),
		"msserve.store.BytesRead":    float64(ds.Reads.BytesRead),
		"msserve.store.CacheHits":    float64(ds.Reads.CacheHits),
		"msserve.store.CacheMisses":  float64(ds.Reads.CacheMisses),
		"msserve.store.CacheEvicted": float64(ds.Reads.CacheEvicted),

		"msserve.plancache.Hits":   float64(ds.PlanCache.Hits),
		"msserve.plancache.Misses": float64(ds.PlanCache.Misses),

		"msserve.ingest.Requests":        float64(s.c.ingests.Load()),
		"msserve.ingest.Compacts":        float64(s.c.compacts.Load()),
		"msserve.ingest.MasksIn":         float64(s.c.masksIn.Load()),
		"msserve.ingest.AppendedMasks":   float64(ds.Ingest.AppendedMasks),
		"msserve.ingest.AppendedBatches": float64(ds.Ingest.AppendedBatches),
		"msserve.ingest.AppendedBytes":   float64(ds.Ingest.AppendedBytes),
		"msserve.ingest.ReplayedMasks":   float64(ds.Ingest.ReplayedMasks),
		"msserve.ingest.TornTruncations": float64(ds.Ingest.TornTruncations),
		"msserve.ingest.Compactions":     float64(ds.Ingest.Compactions),
		"msserve.ingest.CompactedMasks":  float64(ds.Ingest.CompactedMasks),
		"msserve.index.Checkpoints":      float64(s.c.idxCheckpoints.Load()),
	}
	if ds.Shards > 1 {
		for i, srs := range ds.ShardReads {
			cur[fmt.Sprintf("msserve.store.shard%03d.MasksLoaded", i)] = float64(srs.MasksLoaded)
			cur[fmt.Sprintf("msserve.store.shard%03d.BytesRead", i)] = float64(srs.BytesRead)
		}
	}
	if ds.Dist != nil {
		cur["msserve.dist.Requests"] = float64(ds.Dist.Requests)
		cur["msserve.dist.Hedges"] = float64(ds.Dist.Hedges)
		cur["msserve.dist.HedgeWins"] = float64(ds.Dist.HedgeWins)
		cur["msserve.dist.Retries"] = float64(ds.Dist.Retries)
		cur["msserve.dist.Failovers"] = float64(ds.Dist.Failovers)
		cur["msserve.dist.TauSent"] = float64(ds.Dist.TauSent)
		cur["msserve.dist.Degraded"] = float64(ds.Dist.Degraded)
		cur["msserve.dist.BytesSent"] = float64(ds.Dist.BytesSent)
		cur["msserve.dist.BytesRecv"] = float64(ds.Dist.BytesRecv)
	}
	var p50, p99 time.Duration
	if q, ok := s.c.latency.Quantiles(0.50, 0.99); ok {
		p50, p99 = q[0], q[1]
	}
	gauges := map[string]float64{
		"msserve.Inflight":           float64(s.adm.inflight.Load()),
		"msserve.InflightWatermark":  float64(s.adm.watermark.Load()),
		"msserve.QueuedNow":          float64(s.adm.queued.Load()),
		"msserve.Sessions":           float64(s.sessions.live()),
		"msserve.LatencyP50Ns":       float64(p50),
		"msserve.LatencyP99Ns":       float64(p99),
		"msserve.UptimeSeconds":      time.Since(s.started).Seconds(),
		"msserve.plancache.Entries":  float64(ds.PlanCache.Entries),
		"msserve.index.IndexedMasks": float64(ds.Index.IndexedMasks),
		"msserve.index.IndexBytes":   float64(ds.Index.IndexBytes),
		"msserve.store.StoredBytes":  float64(ds.StoredBytes),
		"msserve.ingest.TailMasks":   float64(ds.Ingest.TailMasks),
		"msserve.ingest.WALSegments": float64(ds.Ingest.WALSegments),
		"msserve.ingest.WALBytes":    float64(ds.Ingest.WALBytes),
	}

	writeJSON(w, http.StatusOK, s.scrape.Scrape(s.started, now, cur, gauges))
}
