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
