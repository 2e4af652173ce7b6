package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span whose interval caused this one (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span and returns it with a fresh ID; the caller closes it
// with end. A root span (op 0) starts a new op whose ID is its own. A nil
// log hands back a zero span and end ignores it, so traced and untraced
// paths share one code path.
func (l *spanLog) begin(name string, op, parent int64) span {
	if l == nil {
		return span{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	if op == 0 {
		op = id // a root span names its op
	}
	return span{ID: id, Parent: parent, Op: op, Name: name, Start: l.now()}
}

func (l *spanLog) end(s span) {
	if l == nil {
		return
	}
	s.End = l.now()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeJSONL writes every span as one JSON line to dir/name.
func (l *spanLog) writeJSONL(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfByLayer sums each span's self time — its duration minus the part of
// its interval that its children cover — by span name, and returns the
// per-op mean of each in ms together with the mean root span duration.
// A child that ends after its parent (a reply finishing as the handler
// returns) is clipped to the parent, so the self times of one op add up
// exactly to its root span and the means add up to the mean op.
func selfByLayer(spans []span, root string) (layers map[string]float64, opMean float64) {
	spans = slices.Clone(spans)
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.ID, b.ID) }) // parents first
	clipped := make(map[int64]span, len(spans))
	for _, s := range spans {
		if p, ok := clipped[s.Parent]; ok {
			s.Start, s.End = max(s.Start, p.Start), min(s.End, p.End)
			s.End = max(s.End, s.Start)
		}
		clipped[s.ID] = s
	}
	total := make(map[string]int64)
	var rootSum, ops int64
	for _, s := range spans {
		s = clipped[s.ID]
		total[s.Name] += s.dur()
		if p, ok := clipped[s.Parent]; ok {
			total[p.Name] -= s.dur()
		}
		if s.Name == root {
			rootSum += s.dur()
			ops++
		}
	}
	layers = make(map[string]float64, len(total))
	if ops == 0 {
		return layers, 0
	}
	for name, ns := range total {
		layers[name] = float64(ns) / 1e6 / float64(ops)
	}
	return layers, float64(rootSum) / 1e6 / float64(ops)
}

// budgetRow is one line of a latency budget.
type budgetRow struct {
	name string
	ms   float64
}

// printBudget writes a per-op latency budget whose rows sum to total.
func printBudget(w io.Writer, title string, rows []budgetRow, totalName string, total float64, notes ...string) {
	fmt.Fprintf(w, "budget %s\n", title)
	sum := 0.0
	for _, r := range rows {
		share := 0.0
		if total != 0 {
			share = 100 * r.ms / total
		}
		fmt.Fprintf(w, "  %-28s %10.4f ms %6.1f%%\n", r.name, r.ms, share)
		sum += r.ms
	}
	fmt.Fprintf(w, "  %-28s %10.4f ms (rows sum to %.4f ms)\n", totalName, total, sum)
	for _, n := range notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// Trace propagation across the in-process cluster: the client stamps each
// request with its op and parent span, and every wrapper re-stamps the
// request it passes on with its own span as the parent.
const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

type opKey struct{}

type opCtx struct{ op, parent int64 }

// opContext tags ctx so that requests made under it carry the op's root
// span; untraced, it returns ctx as is.
func opContext(ctx context.Context, l *spanLog, root span) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, opCtx{op: root.Op, parent: root.ID})
}

func opFrom(ctx context.Context) (opCtx, bool) {
	v, ok := ctx.Value(opKey{}).(opCtx)
	return v, ok
}

// traceFile names a run's span dump.
func traceFile(o options) string {
	return fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)
}
