package metrics

import (
	"reflect"
	"testing"
	"time"
)

// TestScrape pins the rate rules both /metrics endpoints publish: the
// first scrape rates against start, later ones against the previous
// scrape, a counter that went backwards (a reset) rates 0, gauges carry
// no rate, and the array is sorted by name.
func TestScrape(t *testing.T) {
	var s Scraper
	start := time.Unix(100, 0)
	got := s.Scrape(start, start.Add(2*time.Second), map[string]float64{"b.Count": 10, "a.Count": 4}, map[string]float64{"c.Gauge": 7})
	want := []Metric{
		{Type: "counter", Name: "a.Count", Value: 4, Rate: 2},
		{Type: "counter", Name: "b.Count", Value: 10, Rate: 5},
		{Type: "gauge", Name: "c.Gauge", Value: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first scrape:\n got %+v\nwant %+v", got, want)
	}
	got = s.Scrape(start, start.Add(6*time.Second), map[string]float64{"a.Count": 12, "b.Count": 3, "d.New": 8}, nil)
	want = []Metric{
		{Type: "counter", Name: "a.Count", Value: 12, Rate: 2},
		{Type: "counter", Name: "b.Count", Value: 3},
		{Type: "counter", Name: "d.New", Value: 8, Rate: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second scrape:\n got %+v\nwant %+v", got, want)
	}
}

// TestWindow pins the latency window both callers read: no quantile
// before warm-up, quantiles over the last size observations only, and
// totals over every observation.
func TestWindow(t *testing.T) {
	w := NewWindow(4, 3)
	w.Observe(5 * time.Millisecond)
	w.Observe(1 * time.Millisecond)
	if q, ok := w.Quantiles(0.5); ok {
		t.Fatalf("quantile %v before warm-up", q)
	}
	w.Observe(3 * time.Millisecond)
	q, ok := w.Quantiles(0, 0.5, 1)
	if want := []time.Duration{time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}; !ok || !reflect.DeepEqual(q, want) {
		t.Fatalf("warm quantiles = %v %v, want %v", q, ok, want)
	}
	// Three more push the first two observations (5 ms, 1 ms) out.
	for _, d := range []time.Duration{8, 9, 10} {
		w.Observe(d * time.Millisecond)
	}
	q, _ = w.Quantiles(0, 0.99, 1)
	if want := []time.Duration{3 * time.Millisecond, 9 * time.Millisecond, 10 * time.Millisecond}; !reflect.DeepEqual(q, want) {
		t.Fatalf("quantiles after wrap = %v, want %v", q, want)
	}
	if n, sum := w.Totals(); n != 6 || sum != 36*time.Millisecond {
		t.Fatalf("totals = %d, %v; want 6, 36ms", n, sum)
	}
}
