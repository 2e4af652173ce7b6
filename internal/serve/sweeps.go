// The sweep-kind table: everything the service knows about each value of
// JobSpec.Sweep, and the only place it branches on one. An entry reads and
// writes its own JobSpec fields and nothing else; spec validation, job
// execution and payload assembly look the kind up here and stay
// kind-agnostic. Adding a sweep kind means one entry below (with its
// experiment config builder and row encoder), its JobSpec fields, and its
// row slot in resultPayload.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"netags/internal/experiment"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/trp"
)

// Sweep kinds accepted by JobSpec.Sweep.
const (
	SweepRange   = "range"
	SweepDensity = "density"
	SweepLoss    = "loss"
)

// sweepKind is one sweep kind as the service sees it. Every func but
// normalize takes a normalized spec.
type sweepKind struct {
	// normalize returns the kind's fields of s in canonical form: defaults
	// materialized, the axis copied (and sorted where order cannot change
	// the result). Fields the kind never reads stay zero, so they cannot
	// perturb the key.
	normalize func(s JobSpec) JobSpec
	// points is the axis length.
	points func(n *JobSpec) int
	// label renders axis point i, 0 <= i < points(n).
	label func(n *JobSpec, i int) string
	// population is the largest tag population one trial deploys, on a
	// spec validate accepted.
	population func(n *JobSpec) int
	// validate runs the experiment package's validator on the kind's
	// config; serve adds only its service caps on top.
	validate func(n *JobSpec) error
	// run executes the sweep through experiment.RunResumable, handing each
	// computed point's row JSON to sink.
	run func(ctx context.Context, n *JobSpec, base experiment.BaseConfig, h runHooks, sink pointSink) error
	// rows selects the kind's row slot in the result payload.
	rows func(p *resultPayload) *[]json.RawMessage
}

// pointSink receives one computed point's row JSON, or the error encoding
// it.
type pointSink func(info experiment.PointInfo, row json.RawMessage, err error)

var sweepKinds = map[string]sweepKind{
	SweepRange: {
		normalize: func(s JobSpec) JobSpec {
			protos := s.Protocols
			if len(protos) == 0 {
				protos = []string{string(experiment.SICP), string(experiment.GMLECCM), string(experiment.TRPCCM)}
			}
			// Range rows are sorted by r and seeds are position-derived from
			// the point value, so axis order cannot change the result: sort it.
			rs := append([]float64(nil), s.RValues...)
			sort.Float64s(rs)
			return JobSpec{
				N: s.N, RValues: rs, Protocols: canonicalProtocols(protos),
				GMLEFrame:              orDefault(s.GMLEFrame, gmle.PaperFrameSize),
				TRPFrame:               orDefault(s.TRPFrame, trp.PaperFrameSize),
				ContentionWindow:       s.ContentionWindow,
				DisableIndicatorVector: s.DisableIndicatorVector,
			}
		},
		points:     func(n *JobSpec) int { return len(n.RValues) },
		label:      func(n *JobSpec, i int) string { return fmt.Sprintf("r=%g", n.RValues[i]) },
		population: func(n *JobSpec) int { return n.N },
		validate:   func(n *JobSpec) error { return rangeConfig(n, n.base(0, nil)).Validate() },
		run: func(ctx context.Context, n *JobSpec, base experiment.BaseConfig, h runHooks, sink pointSink) error {
			return resume(ctx, rangeConfig(n, base), h, encodeRangeRow, sink)
		},
		rows: func(p *resultPayload) *[]json.RawMessage { return &p.RangeRows },
	},
	SweepDensity: {
		normalize: func(s JobSpec) JobSpec {
			return JobSpec{NValues: append([]int(nil), s.NValues...), R: s.R}
		},
		points:     func(n *JobSpec) int { return len(n.NValues) },
		label:      func(n *JobSpec, i int) string { return fmt.Sprintf("n=%d", n.NValues[i]) },
		population: func(n *JobSpec) int { return slices.Max(n.NValues) },
		validate:   func(n *JobSpec) error { return densityConfig(n, n.base(0, nil)).Validate() },
		run: func(ctx context.Context, n *JobSpec, base experiment.BaseConfig, h runHooks, sink pointSink) error {
			return resume(ctx, densityConfig(n, base), h, encodeDensityRow, sink)
		},
		rows: func(p *resultPayload) *[]json.RawMessage { return &p.DensityRows },
	},
	SweepLoss: {
		normalize: func(s JobSpec) JobSpec {
			return JobSpec{N: s.N, R: s.R, LossValues: append([]float64(nil), s.LossValues...), FrameSize: s.FrameSize}
		},
		points:     func(n *JobSpec) int { return len(n.LossValues) },
		label:      func(n *JobSpec, i int) string { return fmt.Sprintf("loss=%g", n.LossValues[i]) },
		population: func(n *JobSpec) int { return n.N },
		validate:   func(n *JobSpec) error { return lossConfig(n, n.base(0, nil)).Validate() },
		run: func(ctx context.Context, n *JobSpec, base experiment.BaseConfig, h runHooks, sink pointSink) error {
			return resume(ctx, lossConfig(n, base), h, encodeLossRow, sink)
		},
		rows: func(p *resultPayload) *[]json.RawMessage { return &p.LossRows },
	},
}

// protocolOrder is the canonical protocol ordering used for normalization
// and result rendering (matching the experiment package's render order).
var protocolOrder = []experiment.Protocol{
	experiment.SICP, experiment.CICP, experiment.GMLECCM, experiment.TRPCCM,
}

// canonicalProtocols dedupes and orders a protocol list into the canonical
// render order. Unknown names sort last (alphabetically) so normalization
// stays total; validation rejects them afterwards.
func canonicalProtocols(in []string) []string {
	out := make([]string, 0, len(in))
	for _, kp := range protocolOrder {
		if slices.Contains(in, string(kp)) {
			out = append(out, string(kp))
		}
	}
	known := len(out)
	for _, p := range in {
		if !slices.Contains(out[:known], p) {
			out = append(out, p)
		}
	}
	slices.Sort(out[known:])
	return out[:known+len(slices.Compact(out[known:]))]
}

// kind looks up the spec's sweep kind.
func (n *JobSpec) kind() (sweepKind, error) {
	k, ok := sweepKinds[n.Sweep]
	if !ok {
		return sweepKind{}, fmt.Errorf("serve: unknown sweep kind %q", n.Sweep)
	}
	return k, nil
}

// base is the experiment config the spec's fields shared by every kind
// map to.
func (n *JobSpec) base(workers int, tracer obs.Tracer) experiment.BaseConfig {
	return experiment.BaseConfig{
		N:       n.N,
		Radius:  n.Radius,
		Trials:  n.Trials,
		Seed:    n.Seed,
		Workers: workers,
		Tracer:  tracer,
	}
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func rangeConfig(n *JobSpec, base experiment.BaseConfig) experiment.Config {
	protos := make([]experiment.Protocol, len(n.Protocols))
	for i, p := range n.Protocols {
		protos[i] = experiment.Protocol(p)
	}
	return experiment.Config{
		BaseConfig:             base,
		RValues:                n.RValues,
		GMLEFrame:              n.GMLEFrame,
		TRPFrame:               n.TRPFrame,
		Protocols:              protos,
		ContentionWindow:       n.ContentionWindow,
		DisableIndicatorVector: n.DisableIndicatorVector,
	}
}

func densityConfig(n *JobSpec, base experiment.BaseConfig) experiment.DensityConfig {
	return experiment.DensityConfig{BaseConfig: base, NValues: n.NValues, R: n.R}
}

func lossConfig(n *JobSpec, base experiment.BaseConfig) experiment.LossConfig {
	return experiment.LossConfig{BaseConfig: base, R: n.R, LossValues: n.LossValues, FrameSize: n.FrameSize}
}

// resume runs cfg through the experiment package's one sweep driver,
// skipping the points h marks and encoding every computed point's row for
// sink.
func resume[R any](ctx context.Context, cfg experiment.SweepConfig[R], h runHooks, encode func(R) (json.RawMessage, error), sink pointSink) error {
	_, err := experiment.RunResumable(ctx, cfg, h.skip, func(info experiment.PointInfo, row R) {
		b, err := encode(row)
		sink(info, b, err)
	}, h.observe)
	return err
}

// Per-point row JSON. Each encoder renders one grid point's aggregates in
// a fixed field order; protocols appear in the canonical order regardless
// of how the map iterates.

// protoMetricsJSON is one protocol's aggregates at one range point.
type protoMetricsJSON struct {
	Protocol    string     `json:"protocol"`
	Slots       sampleJSON `json:"slots"`
	MaxSent     sampleJSON `json:"max_sent"`
	MaxReceived sampleJSON `json:"max_received"`
	AvgSent     sampleJSON `json:"avg_sent"`
	AvgReceived sampleJSON `json:"avg_received"`
}

type rangeRowJSON struct {
	R         float64            `json:"r"`
	Tiers     sampleJSON         `json:"tiers"`
	Protocols []protoMetricsJSON `json:"protocols"`
}

type densityRowJSON struct {
	N         int        `json:"n"`
	Tiers     sampleJSON `json:"tiers"`
	SICPSlots sampleJSON `json:"sicp_slots"`
	GMLESlots sampleJSON `json:"gmle_slots"`
	TRPSlots  sampleJSON `json:"trp_slots"`
}

type lossRowJSON struct {
	Loss           float64    `json:"loss"`
	Delivery       sampleJSON `json:"delivery"`
	FalsePositives sampleJSON `json:"false_positives"`
	Rounds         sampleJSON `json:"rounds"`
}

func encodeRangeRow(row experiment.Row) (json.RawMessage, error) {
	rj := rangeRowJSON{R: row.R, Tiers: sampleView(&row.Tiers)}
	for _, proto := range protocolOrder {
		m, ok := row.ByProtocol[proto]
		if !ok {
			continue
		}
		rj.Protocols = append(rj.Protocols, protoMetricsJSON{
			Protocol:    string(proto),
			Slots:       sampleView(&m.Slots),
			MaxSent:     sampleView(&m.MaxSent),
			MaxReceived: sampleView(&m.MaxReceived),
			AvgSent:     sampleView(&m.AvgSent),
			AvgReceived: sampleView(&m.AvgReceived),
		})
	}
	return json.Marshal(rj)
}

func encodeDensityRow(row experiment.DensityRow) (json.RawMessage, error) {
	return json.Marshal(densityRowJSON{
		N:         row.N,
		Tiers:     sampleView(&row.Tiers),
		SICPSlots: sampleView(&row.SICPSlots),
		GMLESlots: sampleView(&row.GMLESlots),
		TRPSlots:  sampleView(&row.TRPSlots),
	})
}

func encodeLossRow(row experiment.LossRow) (json.RawMessage, error) {
	return json.Marshal(lossRowJSON{
		Loss:           row.Loss,
		Delivery:       sampleView(&row.Delivery),
		FalsePositives: sampleView(&row.FalsePositives),
		Rounds:         sampleView(&row.Rounds),
	})
}
