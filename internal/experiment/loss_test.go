package experiment

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestRunLossSweep(t *testing.T) {
	res, err := RunLossSweepContext(context.Background(), LossConfig{
		BaseConfig: BaseConfig{N: 800, Radius: 30, Trials: 3, Seed: 1},
		R:          6,
		LossValues: []float64{0, 0.3, 0.8},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// Reliable channel: full delivery, zero accusations.
	r0 := res.Rows[0]
	if r0.Delivery.Mean() != 1 {
		t.Errorf("loss=0 delivery %v, want 1", r0.Delivery.Mean())
	}
	if r0.FalsePositives.Mean() != 0 {
		t.Errorf("loss=0 false positives %v, want 0", r0.FalsePositives.Mean())
	}
	// Heavy loss: strictly worse delivery and some accusations.
	r2 := res.Rows[2]
	if r2.Delivery.Mean() >= r0.Delivery.Mean() {
		t.Error("delivery did not degrade with loss")
	}
	if r2.FalsePositives.Mean() <= 0 {
		t.Error("heavy loss produced no false accusations (implausible)")
	}
	out := res.Render()
	if !strings.Contains(out, "delivery") || !strings.Contains(out, "0.80") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestRunLossSweepValidation(t *testing.T) {
	base := BaseConfig{N: 10, Radius: 30, Trials: 1}
	inf, nan := math.Inf(1), math.NaN()
	bad := []struct {
		name string
		cfg  LossConfig
	}{
		{"zero config", LossConfig{}},
		{"loss >= 1", LossConfig{BaseConfig: base, R: 6, LossValues: []float64{1.5}}},
		{"negative loss", LossConfig{BaseConfig: base, R: 6, LossValues: []float64{-0.1}}},
		{"NaN loss", LossConfig{BaseConfig: base, R: 6, LossValues: []float64{0, nan}}},
		{"+Inf loss", LossConfig{BaseConfig: base, R: 6, LossValues: []float64{inf}}},
		{"NaN r", LossConfig{BaseConfig: base, R: nan, LossValues: []float64{0.1}}},
		{"+Inf r", LossConfig{BaseConfig: base, R: inf, LossValues: []float64{0.1}}},
		{"NaN radius", LossConfig{BaseConfig: BaseConfig{N: 10, Radius: nan, Trials: 1}, R: 6, LossValues: []float64{0.1}}},
		{"negative frame", LossConfig{BaseConfig: base, R: 6, LossValues: []float64{0.1}, FrameSize: -1}},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := RunLossSweepContext(context.Background(), tc.cfg, nil); err == nil {
			t.Errorf("%s: RunLossSweepContext accepted", tc.name)
		}
	}
}

func TestRunDensitySweep(t *testing.T) {
	res, err := RunDensitySweepContext(context.Background(), DensityConfig{
		BaseConfig: BaseConfig{Radius: 30, Trials: 2, Seed: 3},
		NValues:    []int{500, 2000},
		R:          6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	small, large := res.Rows[0], res.Rows[1]
	// SICP time grows with the population…
	if large.SICPSlots.Mean() <= small.SICPSlots.Mean() {
		t.Error("SICP time did not grow with n")
	}
	// …much faster than CCM's (frame growth only): the SICP/CCM ratio must
	// widen.
	smallRatio := small.SICPSlots.Mean() / small.TRPSlots.Mean()
	largeRatio := large.SICPSlots.Mean() / large.TRPSlots.Mean()
	if largeRatio <= smallRatio {
		t.Errorf("SICP/TRP ratio did not widen with n: %.1f -> %.1f", smallRatio, largeRatio)
	}
	if out := res.Render(); !strings.Contains(out, "Population sweep") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestRunDensitySweepValidation(t *testing.T) {
	base := BaseConfig{Radius: 30, Trials: 1}
	inf, nan := math.Inf(1), math.NaN()
	bad := []struct {
		name string
		cfg  DensityConfig
	}{
		{"zero config", DensityConfig{}},
		{"zero population", DensityConfig{BaseConfig: base, NValues: []int{0}, R: 6}},
		{"NaN r", DensityConfig{BaseConfig: base, NValues: []int{100}, R: nan}},
		{"+Inf r", DensityConfig{BaseConfig: base, NValues: []int{100}, R: inf}},
		{"NaN radius", DensityConfig{BaseConfig: BaseConfig{Radius: nan, Trials: 1}, NValues: []int{100}, R: 6}},
		{"-Inf radius", DensityConfig{BaseConfig: BaseConfig{Radius: -inf, Trials: 1}, NValues: []int{100}, R: 6}},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := RunDensitySweepContext(context.Background(), tc.cfg, nil); err == nil {
			t.Errorf("%s: RunDensitySweepContext accepted", tc.name)
		}
	}
}
