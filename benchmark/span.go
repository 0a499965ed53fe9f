package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a boundary the benchmark can see.
// Spans of one op share Op; Parent is the span that caused this one
// (-1 for an op's root). Times are nanoseconds since the recorder
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced ops skip tracing without a
// branch at every call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far with Self filled in.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := slices.Clone(r.spans)
	r.mu.Unlock()
	fillSelfTimes(out)
	return out
}

// fillSelfTimes sets every span's Self to its duration minus the part
// of that interval its child spans cover. Children may overlap each
// other (parallel work) and may outlive the parent; the union of the
// child intervals, clipped to the parent, is what gets subtracted, so
// overlapping children are not counted twice and self time is never
// negative. Span ids must equal their slice index.
func fillSelfTimes(spans []span) {
	type iv struct{ a, b int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			children[s.Parent] = append(children[s.Parent], iv{a, b})
		}
	}
	for i := range spans {
		ivs := children[i]
		slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		var covered, end int64
		end = spans[i].Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDurations returns the durations in milliseconds of every span
// with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
