package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"netags/internal/experiment"
)

// tiny returns options that run a workload in well under a second.
func tiny(t *testing.T, workload string, trace bool) options {
	o := defaultOptions()
	o.workload, o.seed, o.seconds, o.trace = workload, 7, 0.4, trace
	o.traceDir = t.TempDir()
	o.paperN, o.warmN = 2000, 500
	o.hitSpecs = 4
	o.missRate, o.missN = 20, 100
	o.setupRounds = 1
	return o
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	// paper-trials runs on request but is not gated: see README.md.
	if want := []string{wlHit, wlMiss}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{bench.EndToEnd, e2eMetrics}, {bench.PerLayer, layerMetrics}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)",
					i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run is correct and prints every metric with its unit.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{wlPaper, wlHit, wlMiss} {
		for _, trace := range []bool{false, true} {
			name := wl + "/untraced"
			if trace {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), tiny(t, wl, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := e2eMetrics
				if trace {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
				if trace {
					checkLayers(t, wl, res)
				}
			})
		}
	}
}

// checkLayers asserts what the traced run must show on each workload's
// path: no simulation in the cache-hit phase, one per job on the miss
// path, and nonzero time in every layer the workload calls.
func checkLayers(t *testing.T, wl string, res result) {
	val := func(n string) float64 { return res.Metrics[n].Value }
	var onPath []string
	switch wl {
	case wlPaper:
		onPath = []string{"geom.deploy_ms", "topology.build_ms", "sicp.collect_ms",
			"core.gmle_session_ms", "core.trp_session_ms", "topology.edges", "core.rounds"}
	case wlHit:
		onPath = []string{"cluster.handler_self_ms", "cluster.proxy_ms", "serve.submit_ms",
			"serve.result_ms", "net.residual_ms"}
		if val("serve.executed") != 0 || val("serve.cache_hit_ratio") != 1 {
			t.Errorf("cache-hit phase executed %g sims, hit ratio %g",
				val("serve.executed"), val("serve.cache_hit_ratio"))
		}
		if val("geom.deploy_ms") != 0 {
			t.Errorf("cache-hit phase deployed tags")
		}
	case wlMiss:
		onPath = []string{"geom.deploy_ms", "core.trp_session_ms", "serve.exec_ms",
			"serve.notify_ms", "cluster.proxy_ms", "serve.submit_ms", "sicp.slots"}
		// Half of the tiny run is the untraced phase the counters cover.
		if jobs := float64(res.Attempted / 2); val("serve.executed") != jobs {
			t.Errorf("serve.executed = %g, want one per job (%g)", val("serve.executed"), jobs)
		}
	}
	for _, n := range onPath {
		if val(n) <= 0 {
			t.Errorf("%s = %g, want > 0 on %s", n, val(n), wl)
		}
	}
}

func TestWrongDigestCountsAsFailure(t *testing.T) {
	cfg := paperConfig(7, 2000, 0)
	res, err := experiment.RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var good, bad outcome
	checkPass(&good, res, renderDigest(res))
	checkPass(&bad, res, strings.Repeat("0", 64))
	if good.failed != 0 {
		t.Errorf("matching digest: %d failures", good.failed)
	}
	if bad.failed != int64(len(cfg.RValues)) {
		t.Errorf("wrong digest: %d failures, want %d", bad.failed, len(cfg.RValues))
	}
}

// corruptResults flips one byte of every result body.
type corruptResults struct{ base http.RoundTripper }

func (c corruptResults) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "/result") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body[len(body)/2] ^= 0xff
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func TestCorruptedHitPayloadCountsAsFailure(t *testing.T) {
	o := tiny(t, wlHit, false)
	ctx := context.Background()
	c, hs, err := setupHit(ctx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.client.HTTPClient.Transport = corruptResults{base: c.client.HTTPClient.Transport}
	var out outcome
	out.correct = true
	runHitPhase(ctx, o, c, hs, nil, &out)
	if out.attempted == 0 || out.failed != out.attempted {
		t.Errorf("attempted %d, failed %d: every corrupted op should fail", out.attempted, out.failed)
	}
}

func TestCorruptedMissPayloadCountsAsFailure(t *testing.T) {
	o := tiny(t, wlMiss, false)
	ctx := context.Background()
	jobs, err := missSchedule(o, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupMiss(ctx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{correct: true}
	ph := runMissPhase(ctx, c, jobs, 200*time.Millisecond, nil, &out)
	c.close()
	if out.failed != 0 || !out.correct {
		t.Fatalf("clean phase: failed %d, correct %v", out.failed, out.correct)
	}
	if err := checkSamples(ctx, jobs, ph, &out); err != nil || out.failed != 0 {
		t.Fatalf("clean samples: err %v, failed %d", err, out.failed)
	}
	ph.results[0].payload[0] ^= 0xff
	if err := checkSamples(ctx, jobs, ph, &out); err != nil || out.failed != 1 {
		t.Errorf("corrupted sample: err %v, failed %d, want 1", err, out.failed)
	}
}

func TestMissScheduleReplays(t *testing.T) {
	o := tiny(t, wlMiss, false)
	a, err := missSchedule(o, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := missSchedule(o, 2*time.Second)
	o.seed++
	c, _ := missSchedule(o, 2*time.Second)
	if len(a) != 40 || len(c) != 40 {
		t.Fatalf("%d and %d jobs, want rate × duration = 40", len(a), len(c))
	}
	keys := make(map[string]bool)
	for i := range a {
		if a[i].key != b[i].key || a[i].due != b[i].due {
			t.Fatalf("job %d differs between two draws of one seed", i)
		}
		keys[a[i].key] = true
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if len(keys) != len(a) {
		t.Errorf("%d distinct keys for %d jobs", len(keys), len(a))
	}
	if a[0].key == c[0].key {
		t.Errorf("another seed drew the same first job")
	}
}

// TestPaperDigest pins the first pass at paper scale under the default
// seed, which the benchmark checks on every run with that seed.
func TestPaperDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("a paper-scale pass takes several seconds")
	}
	res, err := experiment.RunContext(context.Background(), paperConfig(defaultSeed, 10000, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDigest(res); got != paperDigest {
		t.Errorf("digest %s, pinned %s", got, paperDigest)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input")
	}
}

func TestSelfByLayer(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "cluster.router", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "cluster.proxy", Start: 20, End: 95}, // overruns its parent
	}
	self, opMean := selfByLayer(spans, "op")
	if opMean != 100e-6 {
		t.Fatalf("op mean %g, want 100e-6", opMean)
	}
	want := map[string]float64{"op": 20e-6, "cluster.router": 10e-6, "cluster.proxy": 70e-6}
	sum := 0.0
	for k, w := range want {
		if d := self[k] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %g, want %g", k, self[k], w)
		}
		sum += self[k]
	}
	if d := sum - opMean; d > 1e-12 || d < -1e-12 {
		t.Errorf("self times sum to %g, op is %g", sum, opMean)
	}
}
