package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return ru
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the whole process has used, user and system.
// Time the hypervisor steals from the guest is not in it.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// latencyMetrics reports the end-to-end timings of a timed phase: the
// median and upper-quartile op latency and the process CPU time per op.
// It also prints, for reading only, the p99 and the wall-clock rate: on a
// shared host both move with the hypervisor's steal time, so neither is
// gated (README.md has the figures).
func latencyMetrics(v map[string]float64, name string, latMS []float64, cpu, elapsed time.Duration) {
	v["latency_p50_ms"] = quantile(latMS, 0.5)
	v["latency_p75_ms"] = quantile(latMS, 0.75)
	if len(latMS) > 0 {
		v["cpu_ms_per_op"] = ms(cpu) / float64(len(latMS))
	}
	v["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs (%.1f/s); p99 %.4f ms over %d samples\n",
		name, len(latMS), elapsed.Seconds(), float64(len(latMS))/elapsed.Seconds(), quantile(latMS, 0.99), len(latMS))
}

// runtimeSample is a runtime/metrics reading taken at a phase boundary.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64 // GOMAXPROCS × wall time
	idleCPU    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), idleCPU: val(3)}
}

// runtimeLayers turns the readings around a timed phase of ops operations
// into the runtime.* per-layer metrics.
func runtimeLayers(v map[string]float64, before, after runtimeSample, ops int64) {
	if ops > 0 {
		v["runtime.alloc_kb_per_op"] = (after.allocBytes - before.allocBytes) / 1024 / float64(ops)
	}
	used := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	if used > 0 {
		v["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / used
	}
}
