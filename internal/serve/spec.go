// Package serve is the simulation-as-a-service layer: it accepts sweep
// jobs over HTTP, executes them on a bounded worker pool built on
// experiment.RunSweep, and memoizes the rendered result JSON in a
// content-addressed LRU cache.
//
// The whole design leans on the determinism pinned since PR 1: a job spec
// fully determines its result bytes (seeds are position-derived, aggregation
// is an ordered reduce, the JSON encoder is canonical), so the SHA-256 of
// the spec's canonical serialization is a sound cache key — two semantically
// equal specs hash identically, and a cache hit is byte-exact, not merely
// statistically equivalent. An in-flight singleflight map extends the same
// idea to time: duplicate concurrent submissions collapse onto one
// execution and all of them read the same payload.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Spec size caps: a service accepting jobs from the network must bound the
// computation a single POST can demand. These are generous for real studies
// (the paper's full evaluation is 9 points × 100 trials at n = 10,000) while
// keeping a hostile spec from parking the pool for hours.
const (
	// MaxPoints bounds the sweep axis length.
	MaxPoints = 4096
	// MaxTrials bounds trials per point.
	MaxTrials = 100000
	// MaxWorkItems bounds points × trials.
	MaxWorkItems = 1 << 20
	// MaxPopulation bounds the tag population per deployment.
	MaxPopulation = 1 << 20
)

// JobSpec is the canonical description of one sweep job. It mirrors the
// experiment package's three sweep configs (range, density, loss) flattened
// into a single JSON-friendly shape; the selected Sweep decides which axis
// fields are read.
//
// The cache-key contract: Key() is the SHA-256 of the normalized spec's
// canonical JSON, and the normalized spec contains exactly the fields the
// computation reads. Fields the selected sweep ignores are cleared by
// Normalize, defaults are materialized, and the range axis is sorted (range
// results are order-independent: rows are sorted by r and per-point seeds
// derive from the point value, not its index). Consequently specs that
// differ only in JSON field order, explicit-zero versus omitted fields,
// ignored fields, or range-axis order hash identically. Execution knobs that
// cannot change the result — the per-job worker budget — are deliberately
// not part of the spec (determinism at any worker count is pinned by the
// experiment package's tests).
type JobSpec struct {
	// Sweep selects the sweep kind: "range" (default), "density", "loss".
	Sweep string `json:"sweep,omitempty"`
	// N is the tag population (range and loss sweeps; the density sweep
	// ignores it in favor of NValues).
	N int `json:"n,omitempty"`
	// Radius is the deployment disk radius in meters (0 = the paper's 30).
	Radius float64 `json:"radius,omitempty"`
	// Trials is the number of independent deployments per sweep point.
	Trials int `json:"trials,omitempty"`
	// Seed is the sweep seed every trial's seeds derive from.
	Seed uint64 `json:"seed,omitempty"`

	// RValues is the range sweep's axis of inter-tag ranges.
	RValues []float64 `json:"r_values,omitempty"`
	// Protocols selects what the range sweep runs (empty = the paper's
	// SICP, GMLE-CCM, TRP-CCM). Order and duplicates are canonicalized away.
	Protocols []string `json:"protocols,omitempty"`
	// GMLEFrame / TRPFrame are the range sweep's application frame sizes
	// (0 = the paper's defaults).
	GMLEFrame int `json:"gmle_frame,omitempty"`
	TRPFrame  int `json:"trp_frame,omitempty"`
	// ContentionWindow forwards to SICP/CICP (0 = their default).
	ContentionWindow int `json:"contention_window,omitempty"`
	// DisableIndicatorVector runs the CCM protocols without §III-D
	// silencing (the flooding ablation).
	DisableIndicatorVector bool `json:"disable_indicator_vector,omitempty"`

	// NValues is the density sweep's axis of populations.
	NValues []int `json:"n_values,omitempty"`
	// R is the inter-tag range of the density and loss sweeps.
	R float64 `json:"r,omitempty"`

	// LossValues is the loss sweep's axis of loss probabilities.
	LossValues []float64 `json:"loss_values,omitempty"`
	// FrameSize is the loss sweep's TRP frame (0 = derive per deployment).
	FrameSize int `json:"frame_size,omitempty"`
}

// Normalized returns the canonical form of the spec: defaults materialized,
// fields the selected sweep ignores cleared, protocol set and range axis
// canonically ordered. It does not validate; Key and Validate both start
// from this form.
func (s JobSpec) Normalized() JobSpec {
	if s.Sweep == "" {
		s.Sweep = SweepRange
	}
	if s.Radius == 0 {
		s.Radius = 30 // the paper's deployment disk
	}
	k, ok := sweepKinds[s.Sweep]
	if !ok {
		return s // Validate rejects the kind; there is nothing to canonicalize
	}
	n := k.normalize(s)
	n.Sweep, n.Radius, n.Trials, n.Seed = s.Sweep, s.Radius, s.Trials, s.Seed
	return n
}

// Validate checks the normalized spec. It reports the first problem found.
func (s JobSpec) Validate() error {
	n := s.Normalized()
	return n.validate()
}

// validate checks an already-normalized spec: the experiment package's
// validator for the kind, then the service caps.
func (n *JobSpec) validate() error {
	k, err := n.kind()
	if err != nil {
		return err
	}
	if err := k.validate(n); err != nil {
		return err
	}
	if n.Trials > MaxTrials {
		return fmt.Errorf("serve: trials %d exceeds cap %d", n.Trials, MaxTrials)
	}
	if p := k.population(n); p > MaxPopulation {
		return fmt.Errorf("serve: population %d exceeds cap %d", p, MaxPopulation)
	}
	points := k.points(n)
	if points > MaxPoints {
		return fmt.Errorf("serve: %d sweep points exceed cap %d", points, MaxPoints)
	}
	if items := points * n.Trials; items > MaxWorkItems {
		return fmt.Errorf("serve: %d work items exceed cap %d", items, MaxWorkItems)
	}
	return nil
}

// TotalItems returns the job's work-item count (points × trials) on the
// normalized spec — the tracker's denominator.
func (s JobSpec) TotalItems() int {
	return s.PointCount() * s.Normalized().Trials
}

// PointCount returns the normalized spec's sweep-axis length — the number
// of grid points, and the denominator of the per-point checkpoint.
func (s JobSpec) PointCount() int {
	n := s.Normalized()
	k, err := n.kind()
	if err != nil {
		return 0
	}
	return k.points(&n)
}

// PointLabel renders point i's coordinate on the normalized axis ("r=6",
// "n=5000", "loss=0.2") — the human-readable half of a checkpoint entry.
func (s JobSpec) PointLabel(i int) string {
	n := s.Normalized()
	if k, err := n.kind(); err == nil && i >= 0 && i < k.points(&n) {
		return k.label(&n, i)
	}
	return fmt.Sprintf("point=%d", i)
}

// CanonicalJSON renders the normalized spec in its stable serialization:
// encoding/json over a fixed struct (declaration-order fields, omitempty on
// everything optional), which is deterministic byte-for-byte.
func (s JobSpec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.Normalized())
}

// Key returns the content address of the spec: the hex SHA-256 of its
// canonical JSON. It does not validate — call Validate before trusting a
// key to be executable.
func (s JobSpec) Key() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
