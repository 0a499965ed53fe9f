package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"masksearch/internal/metrics"
)

// Metric is one published measurement; an array of these is the whole
// /metrics response (see internal/metrics).
type Metric = metrics.Metric

// latencyTracker records request latencies: exact totals for the
// average, plus a ring of the most recent observations for the p50 and
// p99 gauges (a bounded window, so the quantiles track current load
// rather than the whole process lifetime).
type latencyTracker struct {
	count   atomic.Int64
	totalNs atomic.Int64

	mu   sync.Mutex
	ring [1024]int64
	n    int // filled entries, up to len(ring)
	next int
}

func (l *latencyTracker) observe(d time.Duration) {
	l.count.Add(1)
	l.totalNs.Add(d.Nanoseconds())
	l.mu.Lock()
	l.ring[l.next] = d.Nanoseconds()
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// quantiles returns the p50 and p99 latencies (ns) over the recent
// window; zeros before any observation.
func (l *latencyTracker) quantiles() (p50, p99 int64) {
	l.mu.Lock()
	window := make([]int64, l.n)
	copy(window, l.ring[:l.n])
	l.mu.Unlock()
	if len(window) == 0 {
		return 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	at := func(p float64) int64 {
		i := int(p * float64(len(window)-1))
		return window[i]
	}
	return at(0.50), at(0.99)
}

// counters is the server's own request accounting (the store, plan
// cache and index counters come from DB.Stats at scrape time).
type counters struct {
	requests   atomic.Int64 // query+batch+explain requests received
	queries    atomic.Int64 // /query requests executed
	batches    atomic.Int64 // /batch requests executed
	batchStmts atomic.Int64 // statements executed inside batches
	explains   atomic.Int64
	streams    atomic.Int64 // /query requests served as NDJSON streams
	rowsOut    atomic.Int64 // rows written across all responses
	clientErrs atomic.Int64 // 4xx responses (bad SQL, bad binds, rejects)
	serverErrs atomic.Int64 // 5xx responses
	timeouts   atomic.Int64 // requests ended by their deadline
	cancels    atomic.Int64 // requests ended by client disconnect
	ingests    atomic.Int64 // /ingest requests acknowledged
	masksIn    atomic.Int64 // masks acknowledged across /ingest requests
	compacts   atomic.Int64 // /compact requests completed

	// idxCheckpoints counts successful every-N-batches index
	// checkpoints (Config.IndexEvery).
	idxCheckpoints atomic.Int64
	latency        latencyTracker
}
