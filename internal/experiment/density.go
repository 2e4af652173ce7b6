package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/stats"
	"netags/internal/topology"
)

// DensityConfig parameterizes a population sweep — an extension beyond the
// paper, which fixes n = 10,000. CCM's air time is governed by the frame
// size and tier count, not the population, while SICP's grows linearly with
// the IDs it must haul; sweeping n makes that scaling visible.
//
// Radius, Trials, Seed, and Workers come from the embedded BaseConfig;
// BaseConfig.N is ignored — NValues supplies the populations.
type DensityConfig struct {
	BaseConfig
	// NValues are the populations to sweep.
	NValues []int
	// R is the inter-tag range (paper geometry by default).
	R float64
}

// DensityRow reports one population.
type DensityRow struct {
	N int
	// GMLESlots / TRPSlots / SICPSlots are the execution times with frames
	// sized for this population.
	GMLESlots stats.Sample
	TRPSlots  stats.Sample
	SICPSlots stats.Sample
	// Tiers tracks the (density-dependent) tier count.
	Tiers stats.Sample
}

// DensityResults is the sweep outcome.
type DensityResults struct {
	Config DensityConfig
	Rows   []DensityRow
}

// densityProtocols are the protocols the population sweep runs, in run
// order.
var densityProtocols = []Protocol{GMLECCM, TRPCCM, SICP}

// densityTrial is one deployment's slot counts, indexed like
// densityProtocols.
type densityTrial struct {
	tiers int
	slots [3]int64
}

// RunDensitySweepContext runs the population sweep over cfg.Workers
// goroutines. Frame sizes are re-derived per n, exactly as the paper sizes
// its frames for n = 10,000.
func RunDensitySweepContext(ctx context.Context, cfg DensityConfig, observe func(Progress)) (*DensityResults, error) {
	rows, err := RunResumable(ctx, cfg, nil, nil, observe)
	if err != nil {
		return nil, err
	}
	return &DensityResults{Config: cfg, Rows: rows}, nil
}

// Validate reports the config's first problem; RunDensitySweepContext
// makes the same check before it runs anything.
func (cfg DensityConfig) Validate() error {
	if err := cfg.validate(false); err != nil {
		return err
	}
	if len(cfg.NValues) == 0 {
		return fmt.Errorf("experiment: density sweep needs populations")
	}
	for _, n := range cfg.NValues {
		if n <= 0 {
			return fmt.Errorf("experiment: population %d must be positive", n)
		}
	}
	return checkDistance("inter-tag range", cfg.R)
}

// kind is the population sweep. Each point is the range sweep's Config at
// population n with both frames sized for n, so runProtocol runs it
// exactly as the range sweep would.
func (cfg DensityConfig) kind() (sweeper[DensityRow], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gmleF, err := gmle.FrameSizeFor(0.05, 0.95)
	if err != nil {
		return nil, err
	}
	points := make([]Config, len(cfg.NValues))
	for i, n := range cfg.NValues {
		trpF, err := trpFrameFor(n)
		if err != nil {
			return nil, err
		}
		points[i] = Config{BaseConfig: BaseConfig{N: n, Tracer: cfg.Tracer}, GMLEFrame: gmleF, TRPFrame: trpF}
	}
	return kind[Config, densityTrial, DensityRow]{
		Sweep: Sweep[Config, densityTrial]{
			Base:   cfg.BaseConfig,
			Points: points,
			Key:    func(p Config) uint64 { return IntKey(p.N) },
			Run: func(ctx context.Context, p Config, trial int, seeds TrialSeeds) (densityTrial, error) {
				d := geom.NewUniformDisk(p.N, cfg.Radius, seeds.Deploy)
				nw, err := topology.Build(d, 0, topology.PaperRanges(cfg.R))
				if err != nil {
					return densityTrial{}, fmt.Errorf("n=%d trial %d: %w", p.N, trial, err)
				}
				dt := densityTrial{tiers: nw.K}
				for i, proto := range densityProtocols {
					clock, _, err := runProtocol(proto, nw, p, seeds.Proto)
					if err != nil {
						return densityTrial{}, err
					}
					dt.slots[i] = clock.Total()
				}
				return dt, nil
			},
			Event: func(p Config, trial int, dt densityTrial, elapsed time.Duration) Progress {
				return Progress{
					Sweep: "density", N: p.N, Trial: trial, Trials: cfg.Trials,
					Protocols: densityProtocols, Tiers: dt.tiers, Elapsed: elapsed,
				}
			},
		},
		row: func(p Config, trials []densityTrial) DensityRow {
			row := DensityRow{N: p.N}
			for _, dt := range trials {
				row.Tiers.Add(float64(dt.tiers))
				for i, s := range []*stats.Sample{&row.GMLESlots, &row.TRPSlots, &row.SICPSlots} {
					s.Add(float64(dt.slots[i]))
				}
			}
			return row
		},
	}, nil
}

// Render prints the sweep as a table.
func (r *DensityResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Population sweep: execution time in slots (r=%g, %d trials, frames re-sized per n)\n",
		r.Config.R, r.Config.Trials)
	fmt.Fprintf(&b, "%8s  %6s  %12s  %12s  %12s\n", "n", "tiers", "SICP", "GMLE-CCM", "TRP-CCM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %6.1f  %12.0f  %12.0f  %12.0f\n",
			row.N, row.Tiers.Mean(), row.SICPSlots.Mean(), row.GMLESlots.Mean(), row.TRPSlots.Mean())
	}
	return b.String()
}
