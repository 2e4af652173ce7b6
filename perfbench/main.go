// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload, checks its outputs, and prints one JSON
// result line as the last line of standard output:
//
//	perfbench --workload serve-hit --seed 1 --seconds 50 --trace 0
//
// BENCHMARK.json gates the serve-hit and serve-miss workloads.
// paper-trials runs the same way on request but is not gated: its
// paper-scale trials are memory-bound and swing too much with the host's
// load (README.md has the figures).
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation installed. With --trace 1 the run measures the
// workload once untraced and once traced, records spans around the calls
// into each layer, prints a per-layer latency budget on standard error,
// writes the spans as JSONL under --trace-dir, and reports the per-layer
// metrics. See README.md for the workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Workload names.
const (
	wlPaper = "paper-trials"
	wlHit   = "serve-hit"
	wlMiss  = "serve-miss"
)

// e2eMetrics are the end-to-end metrics every workload reports untraced,
// with their units, in BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p75_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer that a workload never calls reads 0.
var layerMetrics = []metricDef{
	{"geom.deploy_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"sicp.collect_ms", "ms"},
	{"core.gmle_session_ms", "ms"},
	{"core.trp_session_ms", "ms"},
	{"topology.edges", "count"},
	{"sicp.slots", "count"},
	{"core.rounds", "count"},
	{"core.slots", "count"},
	{"experiment.residual_ms", "ms"},
	{"cluster.handler_self_ms", "ms"},
	{"cluster.proxy_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"net.residual_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.notify_ms", "ms"},
	{"cluster.max_backend_share", "ratio"},
	{"loadgen.send_lag_p99_ms", "ms"},
	{"serve.executed", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"cluster.forward_errors", "count"},
	{"cluster.failovers", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: op counts, a verdict, and the raw
// metric values keyed by name (e2e for untraced runs, layers for traced).
type outcome struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
}

// fail records one failed op with its reason on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// options configure one run. The size fields default to the benchmark's
// scale; tests shrink them.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string

	paperN      int     // paper-trials population (10,000)
	warmN       int     // paper-trials set-up population
	hitSpecs    int     // serve-hit distinct cached specs
	missRate    float64 // serve-miss arrivals per second
	missN       int     // serve-miss population per job
	setupRounds int     // set-ups per run; setup_s is their median
}

func defaultOptions() options {
	return options{
		paperN: 10000, warmN: 2000,
		hitSpecs: 64,
		missRate: 40, missN: 400,
		setupRounds: 7,
	}
}

// phase returns the measuring time of each phase: the whole run untraced,
// or half untraced and half traced.
func (o options) phase() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

func main() {
	o := defaultOptions()
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-trials, serve-hit or serve-miss")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	flag.Float64Var(&o.seconds, "seconds", 50, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/perfbench/traces", "where a traced run writes its spans")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	// A hung run must still end well inside the benchmark's time limit:
	// every request and wait below honours this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+100*time.Second)
	defer cancel()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and shapes its outcome into the result line.
// It errors when the workload could not run at all; failed checks come
// back as correct=false with the failures counted.
func run(ctx context.Context, o options) (result, error) {
	var (
		out outcome
		err error
	)
	switch o.workload {
	case wlPaper:
		out, err = runPaper(ctx, o)
	case wlHit:
		out, err = runHit(ctx, o)
	case wlMiss:
		out, err = runMiss(ctx, o)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, wlPaper, wlHit, wlMiss)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
	}
	res := result{
		Correct:   out.correct && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: out.values[d.name], Unit: d.unit}
	}
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("workload reported undeclared metric %q", name)
		}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no op was attempted in %gs", o.seconds)
	}
	return res, nil
}
