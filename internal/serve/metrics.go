package serve

import (
	"sync/atomic"

	"masksearch/internal/metrics"
)

// Metric is one published measurement; an array of these is the whole
// /metrics response (see internal/metrics).
type Metric = metrics.Metric

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
	// latency holds every finished request's latency: exact totals for
	// the average, and the p50 and p99 gauges over the most recent
	// latencyWindow.
	latency *metrics.Window
}

// latencyWindow is how many recent requests the latency gauges cover.
const latencyWindow = 1024
