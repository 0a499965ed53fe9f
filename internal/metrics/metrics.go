// Package metrics is the /metrics answer shape msserve and msshard
// share: square/inspect's `-server` JSON, a flat array of typed
// measurements, counters carrying per-second rates between scrapes;
// and the latency window msserve's gauges and the coordinator's
// hedging delays both read.
package metrics

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Metric is one published measurement: an array of these is the whole
// /metrics response. Counters are monotonic and carry a per-second rate
// computed against the previous scrape (the first scrape rates against
// process start); gauges are point-in-time values with no rate.
type Metric struct {
	Type  string  `json:"type"` // "counter" | "gauge"
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Rate  float64 `json:"rate"`
}

// Scraper remembers the previous scrape so counter rates are
// per-second deltas between scrapes, like square/inspect's -step
// collection loop. The zero value is ready to use.
type Scraper struct {
	mu   sync.Mutex
	at   time.Time
	vals map[string]float64
}

// Scrape turns one pass over the counters and gauges into the sorted
// []Metric, rating each counter against the previous scrape (against
// start on the first), and records this scrape as the new baseline. A
// counter that went backwards rates 0.
func (s *Scraper) Scrape(start, now time.Time, counters, gauges map[string]float64) []Metric {
	s.mu.Lock()
	prevAt, prev := s.at, s.vals
	if prevAt.IsZero() {
		prevAt = start
	}
	s.at, s.vals = now, counters
	s.mu.Unlock()
	dt := now.Sub(prevAt).Seconds()
	out := make([]Metric, 0, len(counters)+len(gauges))
	for name, v := range counters {
		m := Metric{Type: "counter", Name: name, Value: v}
		if p := prev[name]; dt > 0 && v >= p {
			m.Rate = (v - p) / dt
		}
		out = append(out, m)
	}
	for name, v := range gauges {
		out = append(out, Metric{Type: "gauge", Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Window keeps the most recent observations of a latency — a bounded
// ring, so its quantiles track current load rather than the whole
// process lifetime — plus exact totals over every observation. It is
// safe for concurrent use.
type Window struct {
	mu     sync.Mutex
	buf    []time.Duration
	warmup int
	n      int64
	sum    time.Duration
}

// NewWindow returns a window over the last size observations whose
// quantiles answer once warmup of them have landed.
func NewWindow(size, warmup int) *Window {
	return &Window{buf: make([]time.Duration, size), warmup: warmup}
}

// Observe records one latency.
func (w *Window) Observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.n%int64(len(w.buf))] = d
	w.n++
	w.sum += d
	w.mu.Unlock()
}

// Quantiles reports the q-quantile of the window for each q in qs
// (each in [0, 1]); ok is false until warmup observations have landed.
func (w *Window) Quantiles(qs ...float64) (out []time.Duration, ok bool) {
	w.mu.Lock()
	if w.n < int64(max(w.warmup, 1)) {
		w.mu.Unlock()
		return nil, false
	}
	window := slices.Clone(w.buf[:min(w.n, int64(len(w.buf)))])
	w.mu.Unlock()
	slices.Sort(window)
	out = make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = window[int(q*float64(len(window)-1))]
	}
	return out, true
}

// Totals reports how many latencies were observed and their sum.
func (w *Window) Totals() (n int64, sum time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n, w.sum
}
