package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"masksearch"
	"masksearch/internal/store"
)

const (
	filterSQL = `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`
	paramSQL  = `SELECT mask_id FROM masks WHERE CP(mask, full, ?, 1.0) > ?`
	rankSQL   = `SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.5, 1.0) DESC LIMIT 5`
)

// newTestServer generates a tiny dataset and stands up a Server over
// it, returning the server, its DB and the httptest base URL.
func newTestServer(t *testing.T, cfg Config) (*Server, *masksearch.DB, string) {
	t.Helper()
	dir := t.TempDir()
	spec := store.TinySpec()
	spec.Images = 16
	if err := store.Generate(dir, spec, 1, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	db, err := masksearch.OpenWith(dir, masksearch.Options{PersistIndexOnClose: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := New(db, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, db, ts.URL
}

// post sends one JSON request and decodes the JSON response.
func post(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestQueryEndpoint(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	ctx := context.Background()

	want, err := db.Query(ctx, filterSQL)
	if err != nil {
		t.Fatal(err)
	}
	var got queryResponse
	status, raw := post(t, url+"/query", queryRequest{SQL: filterSQL}, &got)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if got.Kind != "filter" || len(got.IDs) != len(want.IDs) {
		t.Fatalf("got kind %q, %d ids; want filter, %d ids", got.Kind, len(got.IDs), len(want.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("id[%d] = %d, want %d", i, got.IDs[i], want.IDs[i])
		}
	}
	// Loaded/IndexHits depend on execution order (the first run grows
	// the incremental index), so only the stable field is compared.
	if got.Stats.Targets != want.Stats.Targets {
		t.Errorf("stats targets %d, want %d", got.Stats.Targets, want.Stats.Targets)
	}

	// Ranked plans answer in ranked, not ids.
	wantRank, err := db.Query(ctx, rankSQL)
	if err != nil {
		t.Fatal(err)
	}
	var gotRank queryResponse
	if status, raw := post(t, url+"/query", queryRequest{SQL: rankSQL}, &gotRank); status != http.StatusOK {
		t.Fatalf("rank status %d: %s", status, raw)
	}
	if gotRank.Kind != "topk" || len(gotRank.Ranked) != len(wantRank.Ranked) {
		t.Fatalf("rank: kind %q, %d rows; want topk, %d", gotRank.Kind, len(gotRank.Ranked), len(wantRank.Ranked))
	}
	for i, r := range gotRank.Ranked {
		if r.ID != wantRank.Ranked[i].ID || r.Score != wantRank.Ranked[i].Score {
			t.Fatalf("ranked[%d] = %+v, want %+v", i, r, wantRank.Ranked[i])
		}
	}
}

func TestQuerySessionsReuseStatements(t *testing.T) {
	srv, db, url := newTestServer(t, Config{})
	want, err := db.Query(context.Background(), paramSQL, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var got queryResponse
		status, raw := post(t, url+"/query", queryRequest{
			SQL: paramSQL, Args: []any{0.5, 100}, Session: "alice",
		}, &got)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		if len(got.IDs) != len(want.IDs) {
			t.Fatalf("run %d: %d ids, want %d", i, len(got.IDs), len(want.IDs))
		}
	}
	if hits := srv.sessions.stmtHits.Load(); hits < 2 {
		t.Errorf("session stmt hits = %d, want >= 2 (statement re-prepared per request?)", hits)
	}
	if live := srv.sessions.live(); live != 1 {
		t.Errorf("live sessions = %d, want 1", live)
	}
	if pcs := db.PlanCacheStats(); pcs.Hits == 0 && pcs.Misses == 0 {
		t.Errorf("plan cache untouched: %+v", pcs)
	}
}

func TestQueryErrors(t *testing.T) {
	_, _, url := newTestServer(t, Config{})
	if status, raw := post(t, url+"/query", queryRequest{SQL: "SELECT nonsense"}, nil); status != http.StatusBadRequest {
		t.Errorf("parse error: status %d (%s), want 400", status, raw)
	}
	if status, raw := post(t, url+"/query", queryRequest{SQL: paramSQL, Args: []any{0.5}}, nil); status != http.StatusBadRequest {
		t.Errorf("arity error: status %d (%s), want 400", status, raw)
	}
	if status, raw := post(t, url+"/query", queryRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("missing sql: status %d (%s), want 400", status, raw)
	}
	resp, err := http.Get(url + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

func TestStreamingQuery(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	want, err := db.Query(context.Background(), filterSQL)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(queryRequest{SQL: filterSQL, Stream: true})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var ids []int64
	var done *streamDone
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var d streamDone
		if json.Unmarshal(line, &d) == nil && d.Done {
			done = &d
			continue
		}
		var row streamRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		ids = append(ids, row.ID)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done line")
	}
	if done.Rows != len(ids) || len(ids) != len(want.IDs) {
		t.Fatalf("streamed %d rows (done says %d), want %d", len(ids), done.Rows, len(want.IDs))
	}
	for i := range ids {
		if ids[i] != want.IDs[i] {
			t.Fatalf("row[%d] = %d, want %d", i, ids[i], want.IDs[i])
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	ctx := context.Background()

	// Multi-statement form.
	sqls := []string{filterSQL, rankSQL}
	var out batchResponse
	if status, raw := post(t, url+"/batch", batchRequest{SQLs: sqls}, &out); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results, want 2", len(out.Results))
	}
	for i, sql := range sqls {
		want, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Results[i]
		if got.Rows != len(want.IDs)+len(want.Ranked) {
			t.Fatalf("result %d: %d rows, want %d", i, got.Rows, len(want.IDs)+len(want.Ranked))
		}
	}

	// Parameter-sweep form.
	argSets := [][]any{{0.3, 50}, {0.6, 100}}
	out = batchResponse{}
	if status, raw := post(t, url+"/batch", batchRequest{SQL: paramSQL, ArgSets: argSets, Session: "sweep"}, &out); status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, raw)
	}
	for i, args := range argSets {
		want, err := db.Query(ctx, paramSQL, args...)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Results[i]
		if len(got.IDs) != len(want.IDs) {
			t.Fatalf("sweep result %d: %d ids, want %d", i, len(got.IDs), len(want.IDs))
		}
		for j := range got.IDs {
			if got.IDs[j] != want.IDs[j] {
				t.Fatalf("sweep result %d id[%d] = %d, want %d", i, j, got.IDs[j], want.IDs[j])
			}
		}
	}

	// Shape errors.
	if status, _ := post(t, url+"/batch", batchRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	if status, _ := post(t, url+"/batch", batchRequest{SQLs: sqls, SQL: paramSQL, ArgSets: argSets}, nil); status != http.StatusBadRequest {
		t.Errorf("both forms: status %d, want 400", status)
	}
	if status, _ := post(t, url+"/batch", batchRequest{SQL: paramSQL}, nil); status != http.StatusBadRequest {
		t.Errorf("sweep without arg_sets: status %d, want 400", status)
	}
}

// TestBatchStatementCap: a /batch of more than maxBatch statements or
// argument sets is refused with a 400 naming the cap before anything
// binds or runs, and a sweep of exactly maxBatch runs.
func TestBatchStatementCap(t *testing.T) {
	_, _, url := newTestServer(t, Config{})
	const metaSQL = `SELECT mask_id FROM masks WHERE model_id = ?`
	before := fetchMetrics(t, url)["msserve.Batches"].Value
	argSets := make([][]any, maxBatch+1)
	sqls := make([]string, maxBatch+1)
	for i := range argSets {
		argSets[i] = []any{i % 3}
		sqls[i] = fmt.Sprintf("SELECT mask_id FROM masks WHERE model_id = %d", i%3)
	}
	for name, req := range map[string]batchRequest{
		"sweep": {SQL: metaSQL, ArgSets: argSets},
		"sqls":  {SQLs: sqls},
	} {
		status, raw := post(t, url+"/batch", req, nil)
		if status != http.StatusBadRequest || !strings.Contains(raw, fmt.Sprint(maxBatch)) {
			t.Errorf("%s of %d: status %d %s, want 400 naming %d", name, maxBatch+1, status, raw, maxBatch)
		}
	}
	if got := fetchMetrics(t, url)["msserve.Batches"].Value; got != before {
		t.Fatalf("msserve.Batches %v after refused batches, want %v", got, before)
	}
	var out batchResponse
	if status, raw := post(t, url+"/batch", batchRequest{SQL: metaSQL, ArgSets: argSets[:maxBatch]}, &out); status != http.StatusOK {
		t.Fatalf("sweep of %d: status %d %s", maxBatch, status, raw)
	}
	if len(out.Results) != maxBatch {
		t.Fatalf("%d results, want %d", len(out.Results), maxBatch)
	}
	if got := fetchMetrics(t, url)["msserve.Batches"].Value; got != before+1 {
		t.Fatalf("msserve.Batches %v after one sweep, want %v", got, before+1)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	want, err := db.Explain(paramSQL)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if status, raw := post(t, url+"/explain", explainRequest{SQL: paramSQL}, &out); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if out["plan"] != want {
		t.Errorf("plan %q, want %q", out["plan"], want)
	}
}

func TestHealthz(t *testing.T) {
	_, _, url := newTestServer(t, Config{})
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("health %v", h)
	}
}

// fetchMetrics scrapes /metrics into a name-indexed map.
func fetchMetrics(t *testing.T, url string) map[string]Metric {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ms []Metric
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name }) {
		t.Error("metrics are not name-sorted")
	}
	out := make(map[string]Metric, len(ms))
	for _, m := range ms {
		if m.Type != "counter" && m.Type != "gauge" {
			t.Errorf("metric %s has type %q", m.Name, m.Type)
		}
		out[m.Name] = m
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, url := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if status, raw := post(t, url+"/query", queryRequest{SQL: filterSQL, Session: "m"}, nil); status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, raw)
		}
	}
	// Session-less repeats exercise the DB plan cache (sessions pin
	// their statements locally, bypassing it after the first prepare).
	for i := 0; i < 2; i++ {
		if status, raw := post(t, url+"/query", queryRequest{SQL: rankSQL}, nil); status != http.StatusOK {
			t.Fatalf("sessionless query %d: status %d: %s", i, status, raw)
		}
	}
	ms := fetchMetrics(t, url)
	checks := []struct {
		name string
		min  float64
	}{
		{"msserve.Requests", 5},
		{"msserve.Queries", 5},
		{"msserve.Admitted", 5},
		{"msserve.Completed", 5},
		{"msserve.RowsOut", 1},
		{"msserve.store.MasksLoaded", 1},
		{"msserve.store.BytesRead", 1},
		{"msserve.plancache.Hits", 1}, // session + plan cache reuse across the 3 runs
		{"msserve.sessions.Created", 1},
	}
	for _, c := range checks {
		m, ok := ms[c.name]
		if !ok {
			t.Errorf("metric %s missing", c.name)
			continue
		}
		if m.Type != "counter" {
			t.Errorf("metric %s is %q, want counter", c.name, m.Type)
		}
		if m.Value < c.min {
			t.Errorf("metric %s = %v, want >= %v", c.name, m.Value, c.min)
		}
		if m.Rate < 0 {
			t.Errorf("metric %s rate %v < 0", c.name, m.Rate)
		}
	}
	for _, g := range []string{"msserve.Inflight", "msserve.Sessions", "msserve.LatencyP50Ns", "msserve.LatencyP99Ns", "msserve.UptimeSeconds", "msserve.index.IndexedMasks"} {
		if m, ok := ms[g]; !ok {
			t.Errorf("gauge %s missing", g)
		} else if m.Type != "gauge" {
			t.Errorf("metric %s is %q, want gauge", g, m.Type)
		}
	}
	if got := ms["msserve.Sessions"].Value; got != 1 {
		t.Errorf("msserve.Sessions = %v, want 1", got)
	}

	// A second scrape rates against the first: no work in between, so
	// the request counter must not have advanced and its rate is 0.
	ms2 := fetchMetrics(t, url)
	if ms2["msserve.Queries"].Value != ms["msserve.Queries"].Value {
		t.Errorf("queries advanced between scrapes: %v -> %v", ms["msserve.Queries"].Value, ms2["msserve.Queries"].Value)
	}
	if r := ms2["msserve.Queries"].Rate; r != 0 {
		t.Errorf("idle rate = %v, want 0", r)
	}
}

// TestAdmissionRejects pins the reject-immediately mode: with one
// execution slot held open, a second request fails fast with 429 and
// the rejection is observable in /metrics, while the in-flight
// watermark proves the bound was never exceeded.
func TestAdmissionRejects(t *testing.T) {
	srv, _, url := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 0})
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	srv.onAdmitted = func() {
		entered <- struct{}{}
		<-gate
	}

	firstDone := make(chan int, 1)
	go func() {
		status, _ := post(t, url+"/query", queryRequest{SQL: filterSQL}, nil)
		firstDone <- status
	}()
	<-entered // the only slot is now held

	status, raw := post(t, url+"/query", queryRequest{SQL: filterSQL}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d (%s), want 429", status, raw)
	}
	if !strings.Contains(raw, "error") {
		t.Errorf("429 body %q has no error field", raw)
	}

	close(gate)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", status)
	}
	srv.onAdmitted = nil

	ms := fetchMetrics(t, url)
	if got := ms["msserve.Rejected"].Value; got != 1 {
		t.Errorf("msserve.Rejected = %v, want 1", got)
	}
	if got := ms["msserve.InflightWatermark"].Value; got > 1 {
		t.Errorf("msserve.InflightWatermark = %v, want <= 1", got)
	}
	if got := ms["msserve.Inflight"].Value; got != 0 {
		t.Errorf("msserve.Inflight = %v, want 0 after drain", got)
	}
}

// TestAdmissionQueue pins the bounded-queue mode: a request beyond the
// slots waits (and completes once a slot frees), while one beyond the
// queue is rejected immediately.
func TestAdmissionQueue(t *testing.T) {
	srv, _, url := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 1, QueueWait: 10 * time.Second})
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	srv.onAdmitted = func() {
		entered <- struct{}{}
		<-gate
	}

	var wg sync.WaitGroup
	statuses := make(chan int, 2)
	wg.Add(1)
	go func() { // holds the slot
		defer wg.Done()
		status, _ := post(t, url+"/query", queryRequest{SQL: filterSQL}, nil)
		statuses <- status
	}()
	<-entered

	wg.Add(1)
	go func() { // waits in the queue
		defer wg.Done()
		status, _ := post(t, url+"/query", queryRequest{SQL: filterSQL}, nil)
		statuses <- status
	}()
	waitFor(t, "request to queue", func() bool { return srv.adm.queued.Load() == 1 })

	// Slot busy, queue full: the third request is rejected.
	status, _ := post(t, url+"/query", queryRequest{SQL: filterSQL}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("beyond-queue request: status %d, want 429", status)
	}

	close(gate)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("held/queued request: status %d, want 200", status)
		}
	}
	srv.onAdmitted = nil
	ms := fetchMetrics(t, url)
	if got := ms["msserve.Queued"].Value; got != 1 {
		t.Errorf("msserve.Queued = %v, want 1", got)
	}
	if got := ms["msserve.Rejected"].Value; got != 1 {
		t.Errorf("msserve.Rejected = %v, want 1", got)
	}
}

// TestRequestTimeout pins the deadline plumbing: a server-side budget
// that has already expired reaches the verification loops as a
// cancelled context and surfaces as 504.
func TestRequestTimeout(t *testing.T) {
	_, _, url := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	status, raw := post(t, url+"/query", queryRequest{SQL: filterSQL}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, raw)
	}
	ms := fetchMetrics(t, url)
	if got := ms["msserve.Timeouts"].Value; got != 1 {
		t.Errorf("msserve.Timeouts = %v, want 1", got)
	}
}

// TestSessionExpiry drives the TTL and LRU-cap paths directly.
func TestSessionExpiry(t *testing.T) {
	m := newSessionManager(time.Minute, 2)
	base := time.Now()
	m.get("a", base)
	m.get("b", base.Add(time.Second))
	if live := m.live(); live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	// A third session exceeds the cap: the LRU one ("a") is evicted.
	m.get("c", base.Add(2*time.Second))
	if live := m.live(); live != 2 {
		t.Fatalf("live after cap = %d, want 2", live)
	}
	if m.evicted.Load() != 1 {
		t.Fatalf("evicted = %d, want 1", m.evicted.Load())
	}
	m.mu.Lock()
	_, aLive := m.sessions["a"]
	m.mu.Unlock()
	if aLive {
		t.Error("LRU session 'a' survived the cap eviction")
	}
	// Everything idles past the TTL and expires.
	m.sweep(base.Add(time.Hour))
	if live := m.live(); live != 0 {
		t.Errorf("live after TTL = %d, want 0", live)
	}
	if m.expired.Load() != 2 {
		t.Errorf("expired = %d, want 2", m.expired.Load())
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentServing hammers the server from many clients while
// results stay byte-identical to direct queries — the race-detector
// companion to the facade's own concurrency test, through the full
// HTTP path.
func TestConcurrentServing(t *testing.T) {
	_, db, url := newTestServer(t, Config{MaxInflight: 4, QueueDepth: 32, QueueWait: 30 * time.Second})
	ctx := context.Background()
	want, err := db.Query(ctx, filterSQL)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := fmt.Sprintf("client-%d", g%3)
			for i := 0; i < 4; i++ {
				var got queryResponse
				status, raw := post(t, url+"/query", queryRequest{SQL: filterSQL, Session: sess}, &got)
				if status != http.StatusOK {
					errc <- fmt.Errorf("client %d: status %d: %s", g, status, raw)
					return
				}
				if len(got.IDs) != len(want.IDs) {
					errc <- fmt.Errorf("client %d: %d ids, want %d", g, len(got.IDs), len(want.IDs))
					return
				}
				for j := range got.IDs {
					if got.IDs[j] != want.IDs[j] {
						errc <- fmt.Errorf("client %d: id[%d] = %d, want %d", g, j, got.IDs[j], want.IDs[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestStatusForMapping pins the error→HTTP-status table: wrapped
// sentinels map like bare ones, and only unknown errors are a 500.
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"rejected", errRejected, http.StatusTooManyRequests},
		{"rejected wrapped", fmt.Errorf("admit: %w", errRejected), http.StatusTooManyRequests},
		{"parse error", &masksearch.ParseError{}, http.StatusBadRequest},
		{"bind error", &masksearch.BindError{}, http.StatusBadRequest},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"deadline wrapped", fmt.Errorf("query: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"canceled", context.Canceled, statusClientClosedRequest},
		{"closed", masksearch.ErrClosed, http.StatusServiceUnavailable},
		{"unknown", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusFor(tc.err); got != tc.want {
				t.Fatalf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}
