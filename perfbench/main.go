// Command perfbench is the end-to-end benchmark of igepa. One run drives
// one workload, built from a seed, through the repository's own entry points
// (core.LPPacking, core.Planner, server.New, router.New), checks that the
// outputs are correct, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the run records spans at every layer boundary, writes
// them under <out>/traces, and reports the per-layer metrics derived from
// them instead. See README.md for the workloads and the metric table.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench -workload serve_zipf -seed 3 -seconds 20 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef is one row of the metric catalog. BENCHMARK.json lists the same
// rows; the self-test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one; README.md says what the operation is on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"capacity_per_s", "1/s", "higher"},
	{"quality_ratio", "1", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, named after the repository's
// modules. A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"workload.generate_s", "s", "lower"},
	{"model.weights_s", "s", "lower"},
	{"conflict.build_s", "s", "lower"},
	{"admissible.enumerate_s", "s", "lower"},
	{"admissible.columns", "count", "lower"},
	{"core.build_lp_s", "s", "lower"},
	{"core.sample_s", "s", "lower"},
	{"core.repair_s", "s", "lower"},
	{"core.repair_dropped", "count", "lower"},
	{"core.update_nonlp_s", "s", "lower"},
	{"lp.solve_s", "s", "lower"},
	{"lp.pricing_s", "s", "lower"},
	{"lp.update_s", "s", "lower"},
	{"lp.ftran_s", "s", "lower"},
	{"lp.btran_s", "s", "lower"},
	{"lp.factor_s", "s", "lower"},
	{"lp.glue_s", "s", "lower"},
	{"lp.pivots", "count", "lower"},
	{"lp.warm_solves", "count", "higher"},
	{"lp.fast_finish_ratio", "1", "higher"},
	{"lp.fallbacks", "count", "lower"},
	{"lp.repair_pivots", "count", "lower"},
	{"lp.hypersparse_solves", "count", "higher"},
	{"server.handler_p50_us", "us", "lower"},
	{"server.handler_p99_us", "us", "lower"},
	{"server.queue_wait_p50_us", "us", "lower"},
	{"server.queue_wait_p99_us", "us", "lower"},
	{"server.decide_p50_us", "us", "lower"},
	{"server.decide_p99_us", "us", "lower"},
	{"server.wal_p99_us", "us", "lower"},
	{"server.codec_p50_us", "us", "lower"},
	{"server.batch_mean", "count", "higher"},
	{"server.rebid_p99_ms", "ms", "lower"},
	{"server.read_p99_us", "us", "lower"},
	{"server.shed_ratio", "1", "lower"},
	{"shard.renewals", "count", "lower"},
	{"shard.moved_seats", "count", "lower"},
	{"admissible.cache_hit_ratio", "1", "higher"},
	{"wal.bytes_per_op", "B/op", "lower"},
	{"wal.fsync_p99_ms", "ms", "lower"},
	{"router.hop_p50_us", "us", "lower"},
	{"router.hop_p99_us", "us", "lower"},
	{"router.backend_calls_per_op", "1/op", "lower"},
	{"router.renew_p99_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "1/op", "lower"},
	{"runtime.bytes_per_op", "B/op", "lower"},
	{"runtime.gc_cpu_share", "1", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.null_rtt_p50_us", "us", "lower"},
	{"loadgen.null_rtt_p99_us", "us", "lower"},
	{"loadgen.null_allocs_per_op", "1/op", "lower"},
	{"loadgen.null_bytes_per_op", "B/op", "lower"},
	{"trace.ops", "count", "higher"},
	{"trace.spans", "count", "higher"},
	{"trace.overhead_share", "1", "lower"},
	{"trace.reconcile_ratio", "1", "higher"},
}

// runConfig is one invocation: the workload, its seed and time budget, and
// where the run may write (WAL segments, span dumps).
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	size     sizes
}

// outcome is what a workload hands back to main: the operation counts, the
// metric values by name, and the first output check that failed.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	checkErr          error
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records the first failed output check.
func (o *outcome) fail(format string, args ...any) {
	if o.checkErr == nil {
		o.checkErr = fmt.Errorf(format, args...)
	}
}

// workloads maps a workload name to its driver.
var workloads = map[string]func(runConfig) (*outcome, error){
	"offline_devex":   runOffline,
	"replan_churn":    runReplan,
	"serve_zipf":      runServeZipf,
	"cluster_uniform": runClusterUniform,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: offline_devex, replan_churn, serve_zipf, cluster_uniform")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for WAL segments and span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.size = fullSizes()
	drive, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	res, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", cfg.workload, res.checkErr)
		os.Exit(1)
	}
}

// report prints the human-readable metric table and the stamp, then the
// result object as the last line.
func report(w io.Writer, cfg runConfig, res *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	bw := bufio.NewWriter(w)
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not produce metric %s", cfg.workload, d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(bw, "# %-30s %16.6g %s\n", d.Name, v, d.Unit)
	}
	stamp, _ := json.Marshal(machineStamp(cfg))
	fmt.Fprintf(bw, "# stamp %s\n", stamp)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.checkErr == nil, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// machineStamp identifies where and on what a result was measured:
// wall-clock numbers mean nothing without the CPU they ran on.
func machineStamp(cfg runConfig) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// workDir creates a fresh scratch directory for one run under cfg.out; the
// caller removes it.
func workDir(cfg runConfig) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.out, "work-"+cfg.workload+"-")
}

// budget is a run's measurement clock.
type budget struct {
	start time.Time
	total time.Duration
}

func newBudget(seconds float64) budget {
	return budget{start: time.Now(), total: time.Duration(seconds * float64(time.Second))}
}

// share returns frac of the whole budget as a duration.
func (b budget) share(frac float64) time.Duration {
	return time.Duration(frac * float64(b.total))
}

func (b budget) left() time.Duration { return b.total - time.Since(b.start) }

// setupTimes runs fn n times and returns the median duration in seconds.
// Every workload sets up several times so one slow start does not decide
// setup_s.
func setupTimes(n int, fn func(i int) error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// setupRepeats is how many times each workload sets up.
const setupRepeats = 3

var errNoOps = errors.New("no operation completed in the measured window")

// fillAbsent sets every catalog metric the workload did not produce to 0:
// the layer is not on that workload's path.
func fillAbsent(o *outcome, defs []metricDef) {
	for _, d := range defs {
		if _, ok := o.metrics[d.Name]; !ok {
			o.metrics[d.Name] = 0
		}
	}
}
