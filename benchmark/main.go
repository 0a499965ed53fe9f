// Command benchmark is the repository's one repeatable benchmark: six
// named workloads, each reporting the same end-to-end metrics with
// tracing off, and per-layer counters, probes and a span trace with
// tracing on. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	bash benchmark/run.sh --workload explore.raw --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --seed 1          # every workload, untraced then traced
//
// The last line of standard output of a single-workload run is one
// JSON object {"correct","attempted","failed","metrics"}; the exit
// code is non-zero when the run could not complete or, in the
// all-workloads report, when any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"masksearch"
)

// metricDef names one metric; BENCHMARK.json carries the same lists
// (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer is printed by every workload with tracing on. A metric of a
// layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"sql.prepare_us", "us"},
	{"sql.bind_us", "us"},
	{"sql.plan_hit_share", "share"},
	{"core.decided_share", "share"},
	{"core.fml", "share"},
	{"core.bounds_ns_per_mask", "ns"},
	{"core.build_us_per_mask", "us"},
	{"core.kernel_ns_per_px", "ns"},
	{"store.masks_loaded_per_op", "count"},
	{"store.bytes_read_per_op", "bytes"},
	{"store.load_us_per_mask", "us"},
	{"store.cache_hit_share", "share"},
	{"store.cache_evicted_per_op", "count"},
	{"store.open_ms", "ms"},
	{"store.append_us_per_mask", "us"},
	{"store.write_p50_ms", "ms"},
	{"store.write_tail_ms", "ms"},
	{"store.wal_bytes_per_user_byte", "ratio"},
	{"store.compact_ms", "ms"},
	{"store.compactions", "count"},
	{"store.compact_stall_ms", "ms"},
	{"store.stored_bytes_per_user_byte", "ratio"},
	{"store.index_share", "share"},
	{"serve.handler_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.resp_bytes_per_op", "bytes"},
	{"serve.rejected_share", "share"},
	{"serve.gen_late_ms", "ms"},
	{"dist.requests", "count"},
	{"dist.bytes_sent", "bytes"},
	{"dist.bytes_recv", "bytes"},
	{"dist.tau_sent", "count"},
	{"dist.hedges", "count"},
	{"dist.hedge_win_share", "share"},
	{"dist.retries", "count"},
	{"dist.failovers", "count"},
	{"dist.remote_masks", "count"},
	{"dist.frame_us", "us"},
	{"dist.overhead_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.model_ms", "ms"},
	{"trace.explained_share", "share"},
}

// workloads lists the benchmark's workloads; BENCHMARK.json carries
// the same names and reasons.
var workloads = []workload{
	{"explore.raw", "ad-hoc literal queries on raw wilds-sim: core bounds/prune/verify and raw store loads; serve, WAL, dist and codec work must not move it", 99,
		func(e *env) (*result, error) { return runExplore(e, "") }},
	{"explore.rle", "the same op list on the RLE copy: isolates the codec (RLE kernels, per-load validation, RLE index build in setup_s)", 90,
		func(e *env) (*result, error) { return runExplore(e, masksearch.CodecRLE) }},
	{"session.cold", "a whole cold exploration session per op on imagenet-sim: open, incremental index, evicting mask cache, QueryBatch, close", 80, runSession},
	{"serve.open", "open loop at a fixed rate over loopback HTTP: admission, sessions, JSON, net/http and inter-query concurrency; parse/plan bypassed", 95, runServe},
	{"ingest.mixed", "paced Appends and compactions beside a closed-loop reader: WAL fsync, tail loads, snapshot views, compaction stalls", 99, runIngest},
	{"dist.scatter", "queries scattered to two shard nodes over loopback TCP with tau exchange and hedging on: frames, JSON payloads, dial per request", 90, runDist},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a single-workload run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues derives the end-to-end metrics from a run.
func endToEndValues(w *workload, r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":   median(r.setup),
		"ops_per_s": share(float64(r.attempted-r.failed), r.elapsed),
		"p50_ms":    median(r.lat),
		"tail_ms":   percentile(r.lat, w.tailPct),
	}
}

func makeReport(w *workload, r *result, trace bool) report {
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, endToEndValues(w, r)
	if trace {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return rep
}

// fingerprint describes the environment a result was measured in.
func fingerprint(e *env, r *result) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var ds []string
	for _, d := range r.datasets {
		ds = append(ds, d.String())
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%g gen_version=%d datasets=[%s]",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), e.seed, e.seconds, genVersion, strings.Join(ds, " "))
}

// runOne runs one workload and prints its human-readable lines; the
// caller prints the report.
func runOne(e *env, w *workload) (*result, error) {
	r, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if e.trace {
		if err := writeSpans(e.traceFile(w.name), r.spans); err != nil {
			return nil, err
		}
	}
	fmt.Printf("# %s trace=%v %s\n", w.name, e.trace, fingerprint(e, r))
	fmt.Printf("# %s ops_sha256=%s samples=%d tail=p%g gen_s=%.3f setup_cycles=%d attempted=%d failed=%d fail_share=%.6f\n",
		w.name, r.opHash, len(r.lat), w.tailPct, r.genS, len(r.setup), r.attempted, r.failed, share(float64(r.failed), float64(r.attempted)))
	return r, nil
}

func printMetrics(w *workload, rep report, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-14s %-34s %14.4f %s\n", w.name, d.name, rep.Metrics[d.name].Value, d.unit)
	}
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: every workload untraced, then traced")
		seed    = flag.Int64("seed", 1, "seed of the op generator")
		seconds = flag.Float64("seconds", 12, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		data    = flag.String("data", filepath.Join(os.TempDir(), "masksearch-benchmark"), "dataset directory (reused when spec and generator version match)")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files")
	)
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fatal(err)
	}
	mk := func(trace bool) *env {
		return &env{seed: *seed, seconds: *seconds, trace: trace, dataDir: *data, outDir: *out, clients: runtime.NumCPU()}
	}

	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		e := mk(*trace == 1)
		r, err := runOne(e, w)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(makeReport(w, r, e.trace))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}

	wrong := false
	for _, tr := range []bool{false, true} {
		for i := range workloads {
			w := &workloads[i]
			e := mk(tr)
			r, err := runOne(e, w)
			if err != nil {
				fatal(err)
			}
			defs := endToEnd
			if tr {
				defs = perLayer
			}
			printMetrics(w, makeReport(w, r, tr), defs)
			wrong = wrong || r.failed > 0
		}
	}
	if wrong {
		fatal(fmt.Errorf("wrong answers or failed ops: see fail_share above"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
