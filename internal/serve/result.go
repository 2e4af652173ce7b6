// Result execution and rendering. runSpecHooked is the single bridge from
// a canonical JobSpec to the experiment package's sweeps: it streams every
// completed grid point out through a hook as deterministic row JSON (fixed
// field order, canonical protocol order, float64 formatting delegated to
// encoding/json). The final payload is assembled from those per-point rows
// by assemblePayload — the same function whether the rows were computed
// just now, restored from a checkpoint, or a mix — so an interrupted-and-
// resumed sweep produces byte-identical payloads to an uninterrupted run
// by construction. Byte-identical payloads for equal specs are what make
// the content-addressed cache exact.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"netags/internal/experiment"
	"netags/internal/obs"
	"netags/internal/stats"
)

// sampleJSON is the JSON view of a stats.Sample summary.
type sampleJSON struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func sampleView(s *stats.Sample) sampleJSON {
	return sampleJSON{N: s.N(), Mean: s.Mean(), StdDev: s.StdDev(), Min: s.Min(), Max: s.Max()}
}

// resultPayload is the JSON document served by GET /api/v1/jobs/{id}/result
// and stored in the cache. Exactly one row slice is populated, matching the
// spec's sweep kind; rows are raw per-point JSON, the same bytes that were
// checkpointed and streamed as each point completed.
type resultPayload struct {
	// Key is the job's content address (also its job id).
	Key string `json:"key"`
	// Spec echoes the normalized spec the result was computed from.
	Spec JobSpec `json:"spec"`
	// Rows, one flavor per sweep kind.
	RangeRows   []json.RawMessage `json:"range_rows,omitempty"`
	DensityRows []json.RawMessage `json:"density_rows,omitempty"`
	LossRows    []json.RawMessage `json:"loss_rows,omitempty"`
}

// runHooks carries the per-run wiring from the manager into runSpecHooked.
type runHooks struct {
	// observe receives the sweep's per-item Progress events (the manager
	// wires the job's Tracker).
	observe func(experiment.Progress)
	// tracer, if non-nil, receives every protocol run's event stream.
	tracer obs.Tracer
	// skip marks point indices already checkpointed; their work items are
	// not run (the resume path). nil means run everything.
	skip []bool
	// pointDone, if non-nil, receives each computed point's record (Seq
	// unset — the checkpoint store stamps it) as soon as the point's last
	// trial lands. Calls are serialized.
	pointDone func(rec PointRecord)
}

// runSpecHooked executes the normalized spec with the given worker budget,
// streaming every computed point out through h.pointDone. It returns no
// payload: the caller assembles one from the complete row set (checkpoint
// plus fresh points) with assemblePayload.
func runSpecHooked(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
	n := spec.Normalized()
	if err := n.validate(); err != nil {
		return err
	}
	k := sweepKinds[n.Sweep]
	return k.run(ctx, &n, n.base(workers, h.tracer), h, func(info experiment.PointInfo, row json.RawMessage, err error) {
		if h.pointDone == nil {
			return
		}
		if err != nil {
			// A row that cannot marshal is a programming error; surface it
			// loudly rather than checkpointing a hole.
			panic(fmt.Sprintf("serve: encode point %d: %v", info.Index, err))
		}
		h.pointDone(PointRecord{
			Index:     info.Index,
			Label:     k.label(&n, info.Index),
			ElapsedMS: float64(info.Elapsed) / float64(time.Millisecond),
			Row:       row,
		})
	})
}

// assemblePayload renders the final result document from the job's
// complete, index-ordered row set. It is the only payload producer:
// uninterrupted, resumed, and direct runs all funnel through it, which is
// what makes their bytes identical.
func assemblePayload(key string, spec JobSpec, rows []json.RawMessage) ([]byte, error) {
	n := spec.Normalized()
	k, err := n.kind()
	if err != nil {
		return nil, err
	}
	p := resultPayload{Key: key, Spec: n}
	*k.rows(&p) = rows
	b, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// runSpec executes the spec start-to-finish and returns the assembled
// payload — the direct, checkpoint-free path, used by tests as the
// byte-identity reference for everything the service layers on top.
func runSpec(ctx context.Context, spec JobSpec, workers int, observe func(experiment.Progress), tracer obs.Tracer) ([]byte, error) {
	n := spec.Normalized()
	if err := n.validate(); err != nil {
		return nil, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, err
	}
	rows := make([]json.RawMessage, n.PointCount())
	err = runSpecHooked(ctx, n, workers, runHooks{
		observe: observe,
		tracer:  tracer,
		pointDone: func(rec PointRecord) {
			if rec.Index >= 0 && rec.Index < len(rows) {
				rows[rec.Index] = rec.Row
			}
		},
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if r == nil {
			return nil, fmt.Errorf("serve: sweep finished without point %d", i)
		}
	}
	return assemblePayload(key, n, rows)
}
