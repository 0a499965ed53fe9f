// Package metrics is the /metrics answer shape msserve and msshard
// share: square/inspect's `-server` JSON, a flat array of typed
// measurements, counters carrying per-second rates between scrapes.
package metrics

import (
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
