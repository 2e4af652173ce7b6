package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"netags/internal/prng"
	"netags/internal/serve"
)

// The serve-hit workload is a closed loop of one client over one
// connection. Each op draws one of the specs that set-up ran, submits it
// through the router (the worker answers from its cache), and fetches the
// result. No simulation runs in the timed phase, so the whole cost is the
// router's admit/route/proxy/relay plus the worker's spec decode, hash and
// cache lookup.

// hitSpec is cached spec i: a small sweep, distinct per i.
func hitSpec(seed uint64, i int) serve.JobSpec {
	return serve.JobSpec{N: 300, Trials: 1, RValues: []float64{5}, Seed: prng.DeriveSeed(seed, 0x686974, uint64(i))}
}

// hitSet is what set-up leaves behind: the specs, their keys, and the
// SHA-256 of each payload.
type hitSet struct {
	specs []serve.JobSpec
	keys  []string
	sums  [][32]byte
}

// setupHit starts a cluster and runs every spec once, so the timed phase
// is served from the workers' caches.
func setupHit(ctx context.Context, o options, log *spanLog) (*benchCluster, hitSet, error) {
	c, err := startCluster(1, log)
	if err != nil {
		return nil, hitSet{}, err
	}
	var hs hitSet
	for i := range o.hitSpecs {
		spec := hitSpec(o.seed, i)
		key, err := spec.Key()
		if err == nil {
			_, err = submit(ctx, c.client, spec, key)
		}
		if err != nil {
			c.close()
			return nil, hitSet{}, err
		}
		hs.specs, hs.keys = append(hs.specs, spec), append(hs.keys, key)
	}
	for _, key := range hs.keys {
		payload, _, err := awaitResult(ctx, c.client, key)
		if err != nil {
			c.close()
			return nil, hitSet{}, err
		}
		hs.sums = append(hs.sums, sha256.Sum256(payload))
	}
	return c, hs, nil
}

// hitPhase is one timed closed loop.
type hitPhase struct {
	latMS   []float64
	elapsed time.Duration
	cpu     time.Duration
	stats   [2]clusterStats
	rt      [2]runtimeSample
}

// hitOp submits one cached spec and checks the reply and payload.
func hitOp(ctx context.Context, c *benchCluster, hs hitSet, i int) error {
	resp, err := submit(ctx, c.client, hs.specs[i], hs.keys[i])
	if err != nil {
		return err
	}
	if resp.Status != serve.OutcomeCached {
		return fmt.Errorf("spec %d answered %q, not from cache", i, resp.Status)
	}
	payload, err := c.client.Result(ctx, resp.ID)
	if err != nil {
		return err
	}
	if sha256.Sum256(payload) != hs.sums[i] {
		return fmt.Errorf("spec %d: payload differs from set-up's", i)
	}
	return nil
}

func runHitPhase(ctx context.Context, o options, c *benchCluster, hs hitSet, log *spanLog, out *outcome) hitPhase {
	rng := rand.New(rand.NewPCG(o.seed, 0x686974))
	var ph hitPhase
	ph.stats[0], ph.rt[0] = c.stats(), readRuntime()
	start, cpu0 := time.Now(), cpuTime()
	for time.Since(start) < o.phase() {
		i := rng.IntN(len(hs.specs))
		out.attempted++
		t0 := time.Now()
		root := log.begin("op", 0, 0)
		err := hitOp(opContext(ctx, log, root), c, hs, i)
		log.end(root)
		if err != nil {
			out.fail("%v", err)
			continue
		}
		ph.latMS = append(ph.latMS, ms(time.Since(t0)))
	}
	ph.elapsed, ph.cpu = time.Since(start), cpuTime()-cpu0
	ph.stats[1], ph.rt[1] = c.stats(), readRuntime()
	if ran := ph.stats[1].executed - ph.stats[0].executed; ran != 0 {
		out.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %d simulations ran in the cache-hit phase\n", ran)
	}
	return ph
}

func runHit(ctx context.Context, o options) (outcome, error) {
	out := outcome{correct: true, values: map[string]float64{}}
	v := out.values
	var (
		c      *benchCluster
		hs     hitSet
		setups []float64
	)
	for range o.setupRounds {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, hs, err = setupHit(ctx, o, nil); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph := runHitPhase(ctx, o, c, hs, nil, &out)
	c.close()
	untracedMean := mean(ph.latMS)
	if !o.trace {
		v["setup_s"] = median(setups)
		latencyMetrics(v, wlHit, ph.latMS, ph.cpu, ph.elapsed)
		return out, nil
	}
	serveLayers(v, ph.stats[0], ph.stats[1])
	runtimeLayers(v, ph.rt[0], ph.rt[1], int64(len(ph.latMS)))

	// The traced phase runs on a fresh cluster with the span wrappers
	// installed; set-up requests carry no op, so they record no spans.
	log := newSpanLog()
	tc, ths, err := setupHit(ctx, o, log)
	if err != nil {
		return out, fmt.Errorf("traced set-up: %w", err)
	}
	tph := runHitPhase(ctx, o, tc, ths, log, &out)
	tc.close()
	spans := log.snapshot()
	tracedMean := spanLayers(v, spans)
	v["trace.overhead_pct"] = 100 * (tracedMean - untracedMean) / untracedMean
	printBudget(os.Stderr, fmt.Sprintf("serve-hit (mean per op over %d traced ops, ms)", len(tph.latMS)),
		[]budgetRow{
			{"net.residual_ms", v["net.residual_ms"]},
			{"cluster.handler_self_ms", v["cluster.handler_self_ms"]},
			{"cluster.proxy_ms", v["cluster.proxy_ms"]},
			{"serve.submit_ms", v["serve.submit_ms"]},
			{"serve.result_ms", v["serve.result_ms"]},
		},
		"traced mean op", tracedMean,
		fmt.Sprintf("untraced mean op %.4f ms, median %.4f ms (trace.overhead_pct %.2f%%)",
			untracedMean, median(ph.latMS), v["trace.overhead_pct"]))
	return out, log.writeJSONL(o.traceDir, traceFile(o))
}
