package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"time"

	"netags/internal/core"
	"netags/internal/experiment"
	"netags/internal/prng"
	"netags/internal/serve"
)

// The serve-miss workload is an open loop: jobs arrive as a seeded Poisson
// process at a fixed rate, each a small range sweep with a seed no other
// job has, so every job is a cache miss and runs one simulation. At most
// two client connections are used. A job's latency runs from its due time
// to its result bytes, so a stall also charges the jobs queued behind it.

// missJob is one scheduled arrival.
type missJob struct {
	spec serve.JobSpec
	key  string
	due  time.Duration // since the start of the phase
}

func missSpec(o options, seed uint64) serve.JobSpec {
	return serve.JobSpec{N: o.missN, Trials: 1, RValues: []float64{4, 6}, Seed: seed}
}

// missSchedule draws the phase's arrivals. Given their count, the arrival
// times of a Poisson process are independent uniform draws over the phase,
// so the count is fixed at rate × duration and only the times are drawn:
// every run offers the same load.
func missSchedule(o options, d time.Duration) ([]missJob, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x6d697373))
	jobs := make([]missJob, max(1, int(math.Round(o.missRate*d.Seconds()))))
	seen := make(map[uint64]bool, len(jobs))
	for i := range jobs {
		seed := rng.Uint64()
		for seen[seed] {
			seed = rng.Uint64()
		}
		seen[seed] = true
		spec := missSpec(o, seed)
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		jobs[i] = missJob{spec: spec, key: key, due: time.Duration(rng.Float64() * float64(d))}
	}
	slices.SortFunc(jobs, func(a, b missJob) int { return cmp.Compare(a.due, b.due) })
	return jobs, nil
}

// missResult is one job's measurements.
type missResult struct {
	ok                           bool
	lag                          time.Duration // dispatch − due
	lat, op                      time.Duration // due → result, dispatch → result
	due                          time.Time
	submitted, started, finished time.Time // the worker's job status
	done                         time.Time // result bytes received
	payload                      []byte
}

// missOp runs one job: submit, follow its stream to the end, fetch the
// result.
func missOp(ctx context.Context, c *benchCluster, job missJob, due time.Time, log *spanLog) (missResult, error) {
	r := missResult{due: due}
	dispatch := time.Now()
	r.lag = dispatch.Sub(due)
	root := log.begin("op", 0, 0)
	defer log.end(root)
	ctx = opContext(ctx, log, root)
	resp, err := submit(ctx, c.client, job.spec, job.key)
	if err != nil {
		return r, err
	}
	if resp.Status == serve.OutcomeCached {
		return r, fmt.Errorf("job %s was served from cache", job.key)
	}
	payload, st, err := awaitResult(ctx, c.client, job.key)
	if err != nil {
		return r, err
	}
	r.done = time.Now()
	r.lat, r.op = r.done.Sub(due), r.done.Sub(dispatch)
	r.payload = payload
	for _, f := range []struct {
		src string
		dst *time.Time
	}{{st.SubmittedAt, &r.submitted}, {st.StartedAt, &r.started}, {st.FinishedAt, &r.finished}} {
		if *f.dst, err = time.Parse(time.RFC3339Nano, f.src); err != nil {
			return r, fmt.Errorf("job %s status time: %w", job.key, err)
		}
	}
	r.ok = true
	return r, nil
}

// missPhase is one timed open loop.
type missPhase struct {
	results []missResult
	start   time.Time
	elapsed time.Duration // first due time to last result
	cpu     time.Duration
	stats   [2]clusterStats
	rt      [2]runtimeSample
}

// maxOutstanding bounds the jobs in flight at once; the generator waits
// (and its lag shows it) beyond that.
const maxOutstanding = 256

func runMissPhase(ctx context.Context, c *benchCluster, jobs []missJob, d time.Duration, log *spanLog, out *outcome) missPhase {
	ctx, cancel := context.WithTimeout(ctx, d+60*time.Second)
	defer cancel()
	ph := missPhase{results: make([]missResult, len(jobs))}
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	ph.stats[0], ph.rt[0] = c.stats(), readRuntime()
	ph.start = time.Now()
	cpu0 := cpuTime()
	for i, job := range jobs {
		due := ph.start.Add(job.due)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := missOp(ctx, c, job, due, log)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", i, err)
			}
			ph.results[i] = r
		}()
	}
	wg.Wait()
	ph.elapsed, ph.cpu = time.Since(ph.start), cpuTime()-cpu0
	ph.stats[1], ph.rt[1] = c.stats(), readRuntime()
	out.attempted += int64(len(jobs))
	for i, r := range ph.results {
		if !r.ok {
			out.fail("job %d did not complete", i)
		}
	}
	if ran := ph.stats[1].executed - ph.stats[0].executed; ran != int64(len(jobs)) {
		out.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %d simulations for %d jobs\n", ran, len(jobs))
	}
	return ph
}

// pick returns f of every completed job.
func (ph missPhase) pick(f func(missResult) time.Duration) []float64 {
	var xs []float64
	for _, r := range ph.results {
		if r.ok {
			xs = append(xs, ms(f(r)))
		}
	}
	return xs
}

// checkSamples byte-compares a few payloads against a standalone
// serve.Manager running the same specs.
func checkSamples(ctx context.Context, jobs []missJob, ph missPhase, out *outcome) error {
	m := serve.NewManager(serve.Config{Workers: 1, JobWorkers: 1})
	defer m.Shutdown(ctx) //nolint:errcheck // idle by then
	n := len(jobs)
	for _, i := range slices.Compact([]int{0, n / 3, 2 * n / 3, n - 1}) {
		if !ph.results[i].ok {
			continue
		}
		st, _, err := m.Submit(jobs[i].spec, serve.SubmitOptions{})
		if err != nil {
			return err
		}
		var want []byte
		for ctx.Err() == nil {
			payload, js, _ := m.Result(st.ID)
			if js.State.Terminal() {
				want = payload
				break
			}
			time.Sleep(time.Millisecond)
		}
		if !bytes.Equal(ph.results[i].payload, want) {
			out.fail("job %d: payload differs from a standalone manager's", i)
		}
	}
	return nil
}

// setupMiss starts a cluster with two client connections and warms it
// with a few sequential jobs that the timed phase does not repeat.
func setupMiss(ctx context.Context, o options, log *spanLog) (*benchCluster, error) {
	c, err := startCluster(2, log)
	if err != nil {
		return nil, err
	}
	for i := range 16 {
		spec := missSpec(o, prng.DeriveSeed(o.seed, 0x7761726d, uint64(i)))
		key, err := spec.Key()
		if err == nil {
			_, err = submit(ctx, c.client, spec, key)
		}
		if err == nil {
			_, _, err = awaitResult(ctx, c.client, key)
		}
		if err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func runMiss(ctx context.Context, o options) (outcome, error) {
	out := outcome{correct: true, values: map[string]float64{}}
	v := out.values
	d := o.phase()
	jobs, err := missSchedule(o, d)
	if err != nil {
		return out, err
	}
	var (
		c      *benchCluster
		setups []float64
	)
	for range o.setupRounds {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		if c, err = setupMiss(ctx, o, nil); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph := runMissPhase(ctx, c, jobs, d, nil, &out)
	c.close()
	if err := checkSamples(ctx, jobs, ph, &out); err != nil {
		return out, err
	}
	lat := ph.pick(func(r missResult) time.Duration { return r.lat })
	if !o.trace {
		v["setup_s"] = median(setups)
		latencyMetrics(v, wlMiss, lat, ph.cpu, ph.elapsed)
		return out, nil
	}

	// Job-timestamp layers, from the untraced phase.
	serveLayers(v, ph.stats[0], ph.stats[1])
	runtimeLayers(v, ph.rt[0], ph.rt[1], int64(len(lat)))
	lags := ph.pick(func(r missResult) time.Duration { return r.lag })
	v["loadgen.send_lag_p99_ms"] = quantile(lags, 0.99)
	submitPath := mean(ph.pick(func(r missResult) time.Duration { return r.submitted.Sub(r.due) }))
	v["serve.queue_wait_ms"] = mean(ph.pick(func(r missResult) time.Duration { return r.started.Sub(r.submitted) }))
	v["serve.exec_ms"] = mean(ph.pick(func(r missResult) time.Duration { return r.finished.Sub(r.started) }))
	v["serve.notify_ms"] = mean(ph.pick(func(r missResult) time.Duration { return r.done.Sub(r.finished) }))

	// Span layers, from the same jobs on a fresh traced cluster.
	log := newSpanLog()
	traced, err := setupMiss(ctx, o, log)
	if err != nil {
		return out, fmt.Errorf("traced set-up: %w", err)
	}
	tph := runMissPhase(ctx, traced, jobs, d, log, &out)
	traced.close()
	tracedMean := spanLayers(v, log.snapshot())
	untracedOp := mean(ph.pick(func(r missResult) time.Duration { return r.op }))
	v["trace.overhead_pct"] = 100 * (tracedMean - untracedOp) / untracedOp

	// Simulation layers: replay the first jobs' trials with the sweep's
	// seeds, and set them against those jobs' untraced execution time.
	runner := core.NewRunner()
	replayed := missPhase{results: ph.results[:min(len(jobs), 200)]}
	for i := range replayed.results {
		spec := jobs[i].spec
		root := log.begin("job", 0, 0)
		for _, r := range spec.RValues {
			seeds := experiment.SeedsFor(spec.Seed, experiment.FloatKey(r), 0)
			counts, err := replayTrial(log, runner, root, spec.N, r, seeds)
			if err != nil {
				return out, fmt.Errorf("replay job %d: %w", i, err)
			}
			if i == 0 {
				counts.addCounts(v)
			}
		}
		log.end(root)
	}
	self, _ := selfByLayer(log.snapshot(), "job")
	replayedExec := mean(replayed.pick(func(r missResult) time.Duration { return r.finished.Sub(r.started) }))
	v["experiment.residual_ms"] = replayedExec - simLayers(v, self)

	printBudget(os.Stderr, fmt.Sprintf("serve-miss (mean per job over %d untraced jobs, ms)", len(lat)),
		[]budgetRow{
			{"submit path (due→submitted)", submitPath},
			{"serve.queue_wait_ms", v["serve.queue_wait_ms"]},
			{"serve.exec_ms", v["serve.exec_ms"]},
			{"serve.notify_ms", v["serve.notify_ms"]},
		},
		"untraced mean latency", mean(lat),
		fmt.Sprintf("untraced median latency %.4f ms; traced mean op %.4f ms vs untraced %.4f ms over %d jobs (trace.overhead_pct %.2f%%)",
			median(lat), tracedMean, untracedOp, len(tph.pick(func(r missResult) time.Duration { return r.op })), v["trace.overhead_pct"]))
	printBudget(os.Stderr, fmt.Sprintf("serve.exec_ms of the %d replayed jobs (mean per job, ms)", len(replayed.results)),
		append(simRows(v), budgetRow{"experiment.residual_ms", v["experiment.residual_ms"]}),
		"serve.exec_ms (replayed jobs)", replayedExec)
	return out, log.writeJSONL(o.traceDir, traceFile(o))
}
