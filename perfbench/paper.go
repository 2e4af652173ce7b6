package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"netags/internal/core"
	"netags/internal/experiment"
	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/prng"
	"netags/internal/sicp"
	"netags/internal/topology"
	"netags/internal/trp"
)

// The paper-trials workload runs the paper's range-sweep trial at paper
// scale (§VI-A: n = 10,000 tags in a 30 m disk, frames 1671/3228, SICP +
// GMLE-CCM + TRP-CCM) at r ∈ {3, 5, 7} m, one pass of three trials after
// another in one goroutine, until the measuring time is up.

// paperR is the workload's sweep axis. Quick()'s r = 10 is left out: its
// dense memory-bound trials swing too much from run to run.
var paperR = []float64{3, 5, 7}

// defaultSeed is the seed whose first pass is pinned by paperDigest.
const defaultSeed = 1

// paperDigest is the SHA-256 of the rendered Fig. 3, Fig. 4 and Tables
// I–IV of the first pass at n = 10,000 under defaultSeed.
const paperDigest = "0b3ebdd671ccdc1d3ce290d102077b14c8addb91e2816e17449077667cfb2d2c"

// paperConfig is pass `pass` of the sweep: each pass draws fresh
// deployments from its own seed.
func paperConfig(seed uint64, n, pass int) experiment.Config {
	c := experiment.Paper()
	c.N = n
	c.RValues = paperR
	c.Trials = 1
	c.Workers = 1
	c.Seed = prng.DeriveSeed(seed, uint64(pass))
	return c
}

// renderDigest hashes the rendered paper figures and tables of res.
func renderDigest(res *experiment.Results) string {
	h := sha256.New()
	h.Write([]byte(res.RenderFig3()))
	h.Write([]byte(res.RenderFig4()))
	for t := experiment.TableMaxSent; t <= experiment.TableAvgReceived; t++ {
		h.Write([]byte(res.RenderTable(t)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPass fails each trial of a pass whose CCM protocols do not beat
// SICP on slots, or all of them when want is set and the rendered rows do
// not hash to it.
func checkPass(out *outcome, res *experiment.Results, want string) {
	digestOK := want == "" || renderDigest(res) == want
	if !digestOK {
		fmt.Fprintf(os.Stderr, "perfbench: rendered rows hash to %s, want %s\n", renderDigest(res), want)
	}
	for _, row := range res.Rows {
		sicpSlots := row.ByProtocol[experiment.SICP].Slots.Mean()
		gmleSlots := row.ByProtocol[experiment.GMLECCM].Slots.Mean()
		trpSlots := row.ByProtocol[experiment.TRPCCM].Slots.Mean()
		switch {
		case !digestOK:
			out.fail("r=%g: rendered rows do not match the pinned digest", row.R)
		case gmleSlots >= sicpSlots || trpSlots >= sicpSlots:
			out.fail("r=%g: GMLE-CCM %.0f and TRP-CCM %.0f slots, SICP %.0f", row.R, gmleSlots, trpSlots, sicpSlots)
		}
	}
}

// sweepRun is what the untraced passes produced.
type sweepRun struct {
	passes  []*experiment.Results
	trialMS []float64 // per-trial wall time from the observe hook
	elapsed time.Duration
	cpu     time.Duration
}

// runPasses runs whole passes until d has elapsed (at least one).
func runPasses(ctx context.Context, o options, d time.Duration, out *outcome) sweepRun {
	var sr sweepRun
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		cfg := paperConfig(o.seed, o.paperN, pass)
		out.attempted += int64(len(cfg.RValues))
		res, err := experiment.RunContext(ctx, cfg, func(p experiment.Progress) {
			sr.trialMS = append(sr.trialMS, ms(p.Elapsed))
		})
		if err != nil {
			for range cfg.RValues {
				out.fail("pass %d: %v", pass, err)
			}
			continue
		}
		want := ""
		if pass == 0 && o.seed == defaultSeed && o.paperN == 10000 {
			want = paperDigest
		}
		checkPass(out, res, want)
		sr.passes = append(sr.passes, res)
	}
	sr.elapsed, sr.cpu = time.Since(start), cpuTime()-cpu0
	return sr
}

func runPaper(ctx context.Context, o options) (outcome, error) {
	out := outcome{correct: true, values: map[string]float64{}}
	v := out.values
	// Set-up: a reduced pass through the same path, repeated. It faults in
	// the code and sizes the experiment package's session runner pool.
	var setups []float64
	for i := range o.setupRounds {
		t0 := time.Now()
		if _, err := experiment.RunContext(ctx, paperConfig(o.seed, o.warmN, -1-i), nil); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rt0 := readRuntime()
	sr := runPasses(ctx, o, o.phase(), &out)
	rt1 := readRuntime()
	done := int64(len(sr.trialMS))
	if !o.trace {
		v["setup_s"] = median(setups)
		latencyMetrics(v, wlPaper, sr.trialMS, sr.cpu, sr.elapsed)
		return out, nil
	}
	runtimeLayers(v, rt0, rt1, done)

	// Traced replay: the same trials again, calling each layer directly
	// with the sweep's position-derived seeds.
	log := newSpanLog()
	runner := core.NewRunner()
	for pass, res := range sr.passes {
		cfg := paperConfig(o.seed, o.paperN, pass)
		for _, row := range res.Rows {
			seeds := experiment.SeedsFor(cfg.Seed, experiment.FloatKey(row.R), 0)
			root := log.begin("trial", 0, 0)
			tc, err := replayTrial(log, runner, root, o.paperN, row.R, seeds)
			log.end(root)
			if err != nil {
				return out, fmt.Errorf("replay r=%g: %w", row.R, err)
			}
			for p, slots := range tc.slots {
				if want := row.ByProtocol[p].Slots.Mean(); float64(slots) != want {
					out.fail("replay r=%g: %s took %d slots, the sweep %.0f", row.R, p, slots, want)
				}
			}
			if pass == 0 {
				tc.addCounts(v)
			}
		}
	}
	self, tracedMean := selfByLayer(log.snapshot(), "trial")
	layerSum := simLayers(v, self)
	untracedMean := mean(sr.trialMS)
	v["experiment.residual_ms"] = untracedMean - layerSum
	v["trace.overhead_pct"] = 100 * (tracedMean - untracedMean) / untracedMean
	printBudget(os.Stderr, fmt.Sprintf("paper-trials (mean per trial over %d trials, ms)", done),
		append(simRows(v), budgetRow{"experiment.residual_ms", v["experiment.residual_ms"]}),
		"untraced mean trial", untracedMean,
		fmt.Sprintf("untraced median trial %.4f ms; traced mean trial %.4f ms (trace.overhead_pct %.2f%%)",
			median(sr.trialMS), tracedMean, v["trace.overhead_pct"]))
	return out, log.writeJSONL(o.traceDir, traceFile(o))
}

// The simulation layers, by span name and per-layer metric name.
var simSpans = []struct{ span, metric string }{
	{"geom.deploy", "geom.deploy_ms"},
	{"topology.build", "topology.build_ms"},
	{"sicp.collect", "sicp.collect_ms"},
	{"core.gmle_session", "core.gmle_session_ms"},
	{"core.trp_session", "core.trp_session_ms"},
}

// simLayers copies the simulation layers' self times into v and returns
// their sum.
func simLayers(v map[string]float64, self map[string]float64) float64 {
	sum := 0.0
	for _, s := range simSpans {
		v[s.metric] = self[s.span]
		sum += self[s.span]
	}
	return sum
}

func simRows(v map[string]float64) []budgetRow {
	rows := make([]budgetRow, 0, len(simSpans))
	for _, s := range simSpans {
		rows = append(rows, budgetRow{s.metric, v[s.metric]})
	}
	return rows
}

// trialCounts are the exactly repeating work counts of one trial.
type trialCounts struct {
	edges, sicpSlots, rounds, ccmSlots int64
	slots                              map[experiment.Protocol]int64
}

func (tc trialCounts) addCounts(v map[string]float64) {
	v["topology.edges"] += float64(tc.edges)
	v["sicp.slots"] += float64(tc.sicpSlots)
	v["core.rounds"] += float64(tc.rounds)
	v["core.slots"] += float64(tc.ccmSlots)
}

// replayTrial runs one range-sweep trial layer by layer, as the experiment
// package does, with one span per layer call under parent.
func replayTrial(log *spanLog, runner *core.Runner, parent span, n int, r float64, seeds experiment.TrialSeeds) (trialCounts, error) {
	tc := trialCounts{slots: make(map[experiment.Protocol]int64, 3)}
	s := log.begin("geom.deploy", parent.Op, parent.ID)
	d := geom.NewUniformDisk(n, 30, seeds.Deploy)
	log.end(s)

	s = log.begin("topology.build", parent.Op, parent.ID)
	nw, err := topology.Build(d, 0, topology.PaperRanges(r))
	log.end(s)
	if err != nil {
		return tc, err
	}
	for i := range nw.N() {
		tc.edges += int64(nw.Degree(i))
	}
	tc.edges /= 2

	s = log.begin("sicp.collect", parent.Op, parent.ID)
	sr, err := sicp.Collect(nw, sicp.Options{Seed: seeds.Proto})
	log.end(s)
	if err != nil {
		return tc, err
	}
	tc.sicpSlots = sr.Clock.Total()
	tc.slots[experiment.SICP] = tc.sicpSlots

	sessions := []struct {
		span  string
		proto experiment.Protocol
		cfg   core.Config
	}{
		{"core.gmle_session", experiment.GMLECCM, core.Config{
			FrameSize: gmle.PaperFrameSize, Seed: seeds.Proto,
			Sampling: gmle.SamplingFor(gmle.PaperFrameSize, float64(n)),
		}},
		{"core.trp_session", experiment.TRPCCM, core.Config{
			FrameSize: trp.PaperFrameSize, Seed: seeds.Proto, Sampling: 1,
		}},
	}
	for _, ss := range sessions {
		s = log.begin(ss.span, parent.Op, parent.ID)
		res, err := runner.Run(nw, ss.cfg)
		log.end(s)
		if err != nil {
			return tc, err
		}
		tc.rounds += int64(res.Rounds)
		tc.ccmSlots += res.Clock.Total()
		tc.slots[ss.proto] = res.Clock.Total()
	}
	return tc, nil
}
