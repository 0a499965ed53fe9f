package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"masksearch"
	"masksearch/internal/serve"
)

// serveRate is serve.open's fixed request rate, about 40 % of what the
// 2-core sandbox sustains.
const serveRate = 150

// spanHeader carries "<parent span>/<op>" from the client to the
// handler middleware so the handler's span nests under the client's.
const spanHeader = "X-Bench-Span"

// tracedHandler is the middleware span around Server.ServeHTTP.
type tracedHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if v := r.Header.Get(spanHeader); v != "" {
		var parent, op int
		if _, err := fmt.Sscanf(v, "%d/%d", &parent, &op); err == nil {
			rec := h.rec.Load()
			sp := rec.start("serve.handler", parent, op)
			defer rec.end(sp)
		}
	}
	h.next.ServeHTTP(w, r)
}

// server is one msserve-equivalent instance on a loopback listener.
type server struct {
	db      *masksearch.DB
	ts      *httptest.Server
	handler *tracedHandler
}

func (s *server) close() error {
	s.ts.Close()
	return s.db.Close()
}

// queryBody is the part of a /query response the benchmark reads.
type queryBody struct {
	Kind   string  `json:"kind"`
	IDs    []int64 `json:"ids"`
	Ranked []struct {
		ID    int64   `json:"id"`
		Score float64 `json:"score"`
	} `json:"ranked"`
	Stats struct {
		Targets  int `json:"targets"`
		Accepted int `json:"accepted_by_bounds"`
		Rejected int `json:"rejected_by_bounds"`
		Loaded   int `json:"loaded"`
	} `json:"stats"`
}

// post sends one op as a session-pinned /query request and returns
// the status and body.
func (s *server) post(o *op, header string) (int, []byte, error) {
	body, err := json.Marshal(map[string]any{"sql": o.SQL, "args": o.Args, "session": "bench"})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(spanHeader, header)
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runServe is serve.open: an open loop at serveRate requests/s against
// serve.New on a loopback listener with msserve's defaults (incremental
// index, unbounded mask cache — the whole dataset fits), latency timed
// from each request's due time.
func runServe(e *env) (*result, error) {
	ds := e.wildsDataset("")
	res, dir, err := e.begin(ds)
	if err != nil {
		return nil, err
	}

	g := newGen(e.seed, "serve", ds.spec)
	shapes := g.serveShapes()
	n := int(serveRate * e.seconds)
	ops := g.serveOps(n, shapes)
	warm := g.serveOps(max(20, n/20), shapes)
	hash := newOpHasher()
	hash.ops(ops)
	res.opHash = hash.sum()

	// Ready means every statement shape is prepared in the session and
	// has run once: the full-catalog shapes verify every mask, which
	// builds the incremental index and fills the cache on the way.
	var first []*op
	seen := map[string]bool{}
	for i := range ops {
		if !seen[ops[i].SQL] {
			seen[ops[i].SQL] = true
			first = append(first, &ops[i])
		}
	}
	open := func() (*server, error) {
		// msserve's flags, except that nothing is persisted: a chi.gob
		// left behind would change the next run's set-up.
		db, err := masksearch.OpenWith(dir, masksearch.Options{CacheBytes: masksearch.CacheUnbounded})
		if err != nil {
			return nil, err
		}
		h := &tracedHandler{next: serve.New(db, serve.Config{})}
		s := &server{db: db, ts: httptest.NewServer(h), handler: h}
		s.ts.Client().Transport.(*http.Transport).MaxConnsPerHost = e.clients
		for _, o := range first {
			if status, body, err := s.post(o, ""); err != nil || status != http.StatusOK {
				s.close()
				return nil, fmt.Errorf("session warm-up %q: status %d %s: %v", o.SQL, status, body, err)
			}
		}
		return s, nil
	}
	srv, setup, err := setupCycles(e.setupBudget(), open, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	res.setup = setup

	for i := range warm {
		if status, _, err := srv.post(&warm[i], ""); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm-up op %d: status %d: %v", i, status, err)
		}
	}

	rec := e.recorder()
	srv.handler.rec.Store(rec)
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	before := srv.db.Stats()
	loop := runOpenLoop(n, time.Second/serveRate, e.clients, func(i int) error {
		var r *recorder
		if e.tracedOp(i) {
			r = rec
		}
		root := r.start("op", -1, i)
		sp := r.start("http.roundtrip", root, i)
		header := ""
		if r != nil {
			header = fmt.Sprintf("%d/%d", sp, i)
		}
		var err error
		statuses[i], bodies[i], err = srv.post(&ops[i], header)
		r.end(sp)
		r.end(root)
		return err
	})
	after := srv.db.Stats()
	res.elapsed = loop.elapsed.Seconds()
	res.attempted = n

	// Check every body against the same op through Stmt.Query directly;
	// the direct pass also gives the engine's share of each request.
	ctx := context.Background()
	var counts engineCounts
	direct := make([]float64, n)
	rejected, respBytes := 0, 0
	for i := range ops {
		res.lat = append(res.lat, ms(loop.lat[i]))
		if statuses[i] == http.StatusTooManyRequests {
			rejected++
		}
		if loop.errs[i] != nil || statuses[i] != http.StatusOK {
			res.failed++
			continue
		}
		respBytes += len(bodies[i])
		var got queryBody
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			res.failed++
			continue
		}
		stmt, err := srv.db.Prepare(ops[i].SQL)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		want, err := stmt.Query(ctx, ops[i].Args...)
		direct[i] = ms(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("direct op %d: %w", i, err)
		}
		ranked := make([]masksearch.Scored, len(got.Ranked))
		for j, r := range got.Ranked {
			ranked[j] = masksearch.Scored{ID: r.ID, Score: r.Score}
		}
		if digest(got.Kind, got.IDs, ranked) != digestResult(want) {
			res.failed++
		}
		counts.ops++
		counts.targets += got.Stats.Targets
		counts.decided += got.Stats.Accepted + got.Stats.Rejected
		counts.loaded += got.Stats.Loaded
	}

	if e.trace {
		res.spans = rec.snapshot()
		counts.fill(res.layer)
		storeCounts(res.layer, before, after, n)
		counts.built = after.Index.IndexedMasks - before.Index.IndexedMasks
		// Per traced op: the client's span, the handler's inside it, and
		// the direct call of the same op.
		client, handler := map[int]float64{}, map[int]float64{}
		for _, s := range res.spans {
			switch s.Name {
			case "http.roundtrip":
				client[s.Op] = float64(s.End-s.Start) / 1e6
			case "serve.handler":
				handler[s.Op] = float64(s.End-s.Start) / 1e6
			}
		}
		var hs, wire, over []float64
		for i, h := range handler {
			hs = append(hs, h)
			wire = append(wire, client[i]-h)
			if direct[i] > 0 {
				over = append(over, h-direct[i])
			}
		}
		late := make([]float64, n)
		for i, d := range loop.late {
			late[i] = ms(d)
		}
		res.layer["serve.handler_ms"] = median(hs)
		res.layer["serve.wire_ms"] = median(wire)
		res.layer["serve.overhead_ms"] = median(over)
		res.layer["serve.resp_bytes_per_op"] = share(float64(respBytes), float64(counts.ops))
		res.layer["serve.rejected_share"] = share(float64(rejected), float64(n))
		res.layer["serve.gen_late_ms"] = percentile(late, 99)
		if err := e.probeAndExplain(res, dir, ds.spec, ops, counts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
