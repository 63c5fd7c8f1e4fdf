// Command perfbench is verdict's end-to-end benchmark. It drives the
// system from outside, through the root verdict API, verdictd's HTTP
// handler on loopback listeners, and the layer packages' exported
// calls, and reports the latencies a user of the system waits on.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload engine --seed 1 --seconds 30 --trace 0
//
// --workload all runs the three workloads one after another.
//
// Workloads:
//
//	engine  cold checks of the paper's Figure 5/6 rollout cells (concrete
//	        and abstract) and the k8s incident models, closed loop, one
//	        client; no service layer runs.
//	serve   a 2-node durable verdictd fleet under an open-loop Poisson
//	        mix of cache hits and cheap cache misses, at 1x then 2x;
//	        one client sends the hits to node 0, the other the misses
//	        to node 1. Set-up is a rolling restart of the fleet on its
//	        settled warm set and the reload of that set into memory.
//	watch   a journaling (fsync off) verdictd's watch sessions fed
//	        closed-loop config-change streams.
//
// Every workload reports the same headline metrics over its timed
// operations: setup_s, op_ms_p50, op_ms_p90, ops_per_s, peak_heap_mb.
// An operation is one check (engine); one submission at the nominal
// rate, cache hit or miss, timed from when it was sent until the
// verdict is in hand (serve: the latencies named hit_ms_* and
// verdict_ms_* are timed from the due time); one event batch, from its
// POST until ?wait_seq reports it verified (watch). ops_per_s is the
// cells of one round over the sum of each cell's median check time
// (engine),
// nominal-rate requests over the CPU time the process spent on them
// (serve: the schedule alone fixes how many complete per wall-clock
// second), and the median over the run's whole seconds of the batches
// the closed-loop sessions completed in that second (watch). Each
// workload also prints the metrics named after its own operations
// (verdict_ms_*, hit_ms_*, event_ms_*, recovery_s, warm_s, ...) and
// each operation class's median, with their sample counts.
//
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics listed in BENCHMARK.json; with --trace 1 the run
// is repeated with spans recorded around every layer call, and the JSON
// holds the per-layer metrics. Every output is checked against a known
// answer; any mismatch makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// run is one invocation's settings and the scratch directory it may
// write (inside the checkout, removed at exit).
type run struct {
	seed    int64
	seconds float64
	dir     string
	tr      *tracer // nil unless this pass records spans
}

// workloads maps a name to its driver. Each driver sets up (several
// times, reporting the median), measures, checks every output, and
// fills rep.
var workloads = map[string]func(*run, *report) error{
	"engine": runEngine,
	"serve":  runServe,
	"watch":  runWatch,
}

// headline names the end-to-end metrics BENCHMARK.json lists; every
// workload reports all of them with --trace 0 (see report.headline).
// op_ms_p90 is printed but not listed: on the engine workload it falls
// on the fastest of the few fattree4 critical-k checks, and its
// run-to-run spread exceeds any bound the benchmark may set. Nor is
// peak_heap_mb: the serve workload collects garbage only about 25
// times in a run, and the highest of those live heaps spread by up to
// 0.39 (quartile distance over median) across seeds. The live heap
// left after the run spread by 0.15 to 0.32 there too: which results
// each node's LRU holds at the end depends on timing.
var headline = []string{"setup_s", "op_ms_p50", "ops_per_s"}

func main() {
	workload := flag.String("workload", "", "engine, serve or watch")
	seed := flag.Int64("seed", 1, "input seed: the same seed yields the same instances, schedules and streams")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"engine", "serve", "watch"}
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fmt.Fprintln(os.Stderr, "usage: perfbench --workload engine|serve|watch|all --seed N --seconds S --trace 0|1")
			os.Exit(2)
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: build dir:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch dir:", err)
		os.Exit(1)
	}
	code := 0
	for _, name := range names {
		if c := benchmark(workloads[name], name, *seed, *seconds, *trace == 1, filepath.Join(dir, name)); c != 0 {
			code = c
		}
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmark runs one workload and prints its report; it returns the
// process exit code.
func benchmark(drive func(*run, *report) error, workload string, seed int64, seconds float64, traced bool, dir string) int {
	plain := &report{workload: workload}
	r := &run{seed: seed, seconds: seconds, dir: filepath.Join(dir, "plain")}
	err := drive(r, plain)
	os.RemoveAll(r.dir) // the watch journal alone grows by hundreds of MB
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	out := plain
	if traced {
		// The traced pass repeats the workload with spans on; its
		// medians against the untraced pass give the tracing cost.
		tp := &report{workload: workload}
		r = &run{seed: seed, seconds: seconds, dir: filepath.Join(dir, "traced"), tr: newTracer()}
		err := drive(r, tp)
		os.RemoveAll(r.dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", workload, err)
			return 1
		}
		tp.attempted += plain.attempted
		tp.failed += plain.failed
		tp.problems = append(plain.problems, tp.problems...)
		tp.invalid = append(plain.invalid, tp.invalid...)
		tp.layer("trace.overhead_pct", "%", 100*(tp.opP50-plain.opP50)/plain.opP50, -1)
		tp.layers = append(tp.layers, r.tr.selfTimes()...)
		if err := r.tr.write(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		out = tp
	}
	out.print(os.Stdout, traced)
	if !out.correct() {
		return 1
	}
	return 0
}

// metric is one reported number. n is the sample count behind a
// percentile or mean, -1 for counts and ratios of counts.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report collects one workload's outcome.
type report struct {
	workload          string
	attempted, failed int
	problems          []string // wrong outputs and failed operations (first few kept)
	invalid           []string // percentiles refused by the sample-count rule
	e2e, layers       []metric
	detail            []metric // per-instance breakdowns, printed only
	opP50             float64  // op_ms_p50, for the traced run's overhead
}

// fail counts one failed, refused or wrong operation.
func (rep *report) fail(format string, args ...any) {
	rep.failed++
	if len(rep.problems) < 20 {
		rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
	}
}

func (rep *report) correct() bool {
	return rep.failed == 0 && len(rep.invalid) == 0 && rep.attempted > 0
}

func (rep *report) metric(name, unit string, v float64, n int) {
	rep.e2e = append(rep.e2e, metric{name, unit, v, n})
}

func (rep *report) layer(name, unit string, v float64, n int) {
	rep.layers = append(rep.layers, metric{name, unit, v, n})
}

// pct reports the q-quantile of ms-valued samples under name, or marks
// the run invalid when fewer than ten samples lie beyond it.
func (rep *report) pct(dst *[]metric, name string, xs []float64, q float64) float64 {
	v, ok := quantile(xs, q)
	if !ok {
		rep.invalid = append(rep.invalid, fmt.Sprintf("%s: %d samples leave fewer than 10 beyond p%g", name, len(xs), 100*q))
		return 0
	}
	*dst = append(*dst, metric{name, "ms", v, len(xs)})
	return v
}

// headline records the metrics every workload reports: the median and
// p90 latency of the workload's timed operations at nominal load,
// their rate (see the package comment), set-up time and peak live heap.
func (rep *report) headline(setup []float64, ops []float64, opsPerS, peakMB float64) {
	rep.metric("setup_s", "s", median(setup), len(setup))
	lo, hi := slices.Min(setup), slices.Max(setup)
	rep.detail = append(rep.detail, metric{"setup_s.min", "s", lo, len(setup)}, metric{"setup_s.max", "s", hi, len(setup)})
	rep.opP50 = rep.pct(&rep.e2e, "op_ms_p50", ops, 0.5)
	rep.pct(&rep.e2e, "op_ms_p90", ops, 0.9)
	rep.metric("ops_per_s", "1/s", opsPerS, len(ops))
	rep.metric("peak_heap_mb", "MB", peakMB, -1)
}

// print writes the human-readable report and, as the last line, the
// JSON result: the BENCHMARK.json end-to-end metrics, or with traced
// the per-layer ones. A listed metric that was not measured, or is not
// a finite number, invalidates the run.
func (rep *report) print(w io.Writer, traced bool) {
	src, want := rep.e2e, headline
	if traced {
		src, want = rep.layers, perLayer
	}
	have := map[string]metric{}
	for _, m := range src {
		have[m.name] = m
	}
	metrics := map[string]jsonMetric{}
	for _, name := range want {
		m, ok := have[name]
		switch {
		case !ok:
			rep.invalid = append(rep.invalid, name+": not measured")
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			rep.invalid = append(rep.invalid, name+": not a number")
		default:
			metrics[name] = jsonMetric{m.value, m.unit}
		}
	}

	errRatio := 0.0
	if rep.attempted > 0 {
		errRatio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, error_ratio %.6f\n", rep.workload, rep.attempted, rep.failed, errRatio)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, p := range rep.invalid {
		fmt.Fprintf(w, "  INVALID %s\n", p)
	}
	show := func(title string, ms []metric) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			n := ""
			if m.n >= 0 {
				n = fmt.Sprintf("n=%d", m.n)
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, n)
		}
	}
	show("end-to-end", rep.e2e)
	if len(rep.detail) > 0 {
		show("detail", rep.detail)
	}
	if traced {
		show("per-layer", rep.layers)
		fmt.Fprintln(w, "layer -> end-to-end mapping (moves on / bypassed by):")
		for _, l := range layerMap {
			fmt.Fprintf(w, "  %-16s -> %-44s %s\n", l.layer, l.moves, l.on)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
