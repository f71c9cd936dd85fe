package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fixtureSeed generates the instances of offline_devex and replan_churn.
// Those workloads time the LP, whose work differs from instance to instance
// by more than a regression bound (cold solves of five Table I seeds at
// |U|=3200 spread 12.5-16 s), so they solve one fixed instance, as the
// repository's LP benchmarks do, and take the run's seed for what varies
// around it: the rounding seed and the delta stream. The serving workloads
// generate their instance from the run's seed.
const fixtureSeed = 1

// sizes are the instance shapes and traffic settings of every workload. The
// full sizes are the benchmark; the self-test runs toy sizes.
type sizes struct {
	offlineUsers, offlineEvents int
	replanUsers, replanEvents   int
	serveUsers, serveEvents     int
	refRate                     float64 // reference rate, requests/s
	checkEvery                  int     // replan: compare Update with Round every K updates
}

func fullSizes() sizes {
	return sizes{
		offlineUsers: 3200, offlineEvents: 160,
		replanUsers: 1000, replanEvents: 100,
		serveUsers: 4000, serveEvents: 200,
		refRate:    500,
		checkEvery: 64,
	}
}

// percentile returns the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// rtSnap is a runtime/metrics reading; deltas of two readings give the
// allocation and GC cost of the window between them.
type rtSnap struct {
	objects, bytes  float64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
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
	return rtSnap{objects: val(0), bytes: val(1), gcCPU: val(2), totalCPU: val(3)}
}

// runtimeMetrics sets <prefix>allocs_per_op and <prefix>bytes_per_op from
// the window [a, b] over ops operations, and for the "runtime." prefix also
// runtime.gc_cpu_share.
func runtimeMetrics(o *outcome, prefix string, a, b rtSnap, ops int) {
	if ops < 1 {
		ops = 1
	}
	o.metrics[prefix+"allocs_per_op"] = (b.objects - a.objects) / float64(ops)
	o.metrics[prefix+"bytes_per_op"] = (b.bytes - a.bytes) / float64(ops)
	if prefix == "runtime." {
		share := 0.0
		if d := b.totalCPU - a.totalCPU; d > 0 {
			share = (b.gcCPU - a.gcCPU) / d
		}
		o.metrics["runtime.gc_cpu_share"] = share
	}
}
