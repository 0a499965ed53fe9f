package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A miniature of every workload on TinyDataset, untraced and traced:
// each must complete, answer correctly and report every metric it is
// listed with.
func TestSmokeAllWorkloads(t *testing.T) {
	data := t.TempDir()
	for _, trace := range []bool{false, true} {
		for i := range workloads {
			w := &workloads[i]
			e := &env{seed: 1, seconds: 0.08, trace: trace, dataDir: data, outDir: filepath.Join(data, "out"), tiny: true, clients: 2}
			r, err := w.run(e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if r.failed != 0 || r.attempted == 0 || len(r.lat) == 0 || len(r.setup) < 5 || r.opHash == "" {
				t.Errorf("%s trace=%v: attempted=%d failed=%d samples=%d setup cycles=%d hash=%q",
					w.name, trace, r.attempted, r.failed, len(r.lat), len(r.setup), r.opHash)
			}
			rep := makeReport(w, r, trace)
			if !trace {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			if len(r.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			for name := range r.layer {
				if _, ok := rep.Metrics[name]; !ok {
					t.Errorf("%s: layer metric %s is not in the perLayer list", w.name, name)
				}
			}
			if err := writeSpans(e.traceFile(w.name), r.spans); err != nil {
				t.Error(err)
			}
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the
// workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
