package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"netags/internal/experiment"
)

// TestWireGolden pins the bytes the service puts on the wire and on disk
// for one small spec per sweep kind: the job key (the cache address and
// checkpoint file name), the SHA-256 of the assembled result payload, every
// checkpoint point label, and the SHA-256 of the Progress JSON stream with
// its wall-clock fields zeroed. The values were generated once and must not
// be edited: a change here means existing caches, checkpoints and clients
// would see different bytes for the same spec.
func TestWireGolden(t *testing.T) {
	cases := []struct {
		name        string
		spec        JobSpec
		key         string
		payloadSHA  string
		labels      []string
		progressSHA string
	}{
		{
			name: "range",
			spec: JobSpec{N: 120, Trials: 2, Seed: 7,
				RValues:   []float64{8, 5},
				Protocols: []string{"TRP-CCM", "CICP", "GMLE-CCM", "SICP"}},
			key:         "1846c3702c74bbe28b395aa2be1696fb6e9b3bfe5f53b180a115281d5c23df3f",
			payloadSHA:  "0c7b767016f59c2c3e3171072bca521c0724a9ff9a5cdced12f864b94a7b32f9",
			labels:      []string{"r=5", "r=8"},
			progressSHA: "58a1cc6293033f8e1482ce5a07e5d8159255bbc205fb10915de4e4544b3583a8",
		},
		{
			name: "density",
			spec: JobSpec{Sweep: SweepDensity, Trials: 2, Seed: 7,
				NValues: []int{60, 120}, R: 8},
			key:         "1e42ae8bea85c03051d0f0612d3f5c4f62aa1a33bf6a1b442ed7e03666a1072a",
			payloadSHA:  "b3760cc2d3bc27507dc88f543dc4fcde169a2865c52e0c1ecbb3b321c6afba1a",
			labels:      []string{"n=60", "n=120"},
			progressSHA: "091a23345c4ebaae241b7ce875f98d85a655225ce02cd3cf65b64416ba61089b",
		},
		{
			name: "loss",
			spec: JobSpec{Sweep: SweepLoss, N: 120, Trials: 2, Seed: 7,
				R: 8, LossValues: []float64{0, 0.3}},
			key:         "e8b15e984f1da6bdc8e47bb23f00bc4f83cb1920fae49ed82e323438ccd9b2e2",
			payloadSHA:  "44bd2a71f93daf8d58695b0f06ca6919de0b7c84f2abca08d61dd80948602557",
			labels:      []string{"loss=0", "loss=0.3"},
			progressSHA: "73b9b167c38320ccc03e3f55da1310ff9fb1f157cd3e7f48ac0e05fc41c23906",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key, err := tc.spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			var progress []byte
			observe := func(p experiment.Progress) {
				p.Elapsed, p.SweepElapsed = 0, 0
				b, err := json.Marshal(p)
				if err != nil {
					t.Error(err)
				}
				progress = append(append(progress, b...), '\n')
			}
			payload, err := runSpec(context.Background(), tc.spec, 1, observe, nil)
			if err != nil {
				t.Fatal(err)
			}
			var labels []string
			for i := 0; i < tc.spec.PointCount(); i++ {
				labels = append(labels, tc.spec.PointLabel(i))
			}
			if key != tc.key {
				t.Errorf("key = %s, want %s", key, tc.key)
			}
			if got := hexSHA(payload); got != tc.payloadSHA {
				t.Errorf("payload sha256 = %s, want %s", got, tc.payloadSHA)
			}
			if len(labels) != len(tc.labels) {
				t.Fatalf("labels = %q, want %q", labels, tc.labels)
			}
			for i := range labels {
				if labels[i] != tc.labels[i] {
					t.Errorf("label %d = %q, want %q", i, labels[i], tc.labels[i])
				}
			}
			if got := hexSHA(progress); got != tc.progressSHA {
				t.Errorf("progress sha256 = %s, want %s", got, tc.progressSHA)
			}
		})
	}
}

func hexSHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
