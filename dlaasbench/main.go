// Command dlaasbench is the DLaaS reproduction's benchmark: one program
// that runs a named workload against the platform's public API, checks
// the workload's outputs, and prints its metrics.
//
//	dlaasbench --workload job-stream --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with per-layer instrumentation (a clock
// wrapper attributing timer calls to modules, timed spans around every
// call the benchmark makes, counter snapshots) and reports per-layer
// metrics instead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it are
// a human-readable report of every metric with its unit and sample
// count. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// holdoutSeed is reserved for confirming a claimed gain: tune and
// develop on other seeds, then check the claim once on this one.
const holdoutSeed = 20181

// hardWallLimit bounds one run, traced passes included; a workload that
// has not finished by then stops waiting and fails its checks rather
// than exceed the run budget.
const hardWallLimit = 150 * time.Second

// runDeadline is when the current run hits hardWallLimit.
var runDeadline time.Time

// setupRepeats is how many times metadata-churn and chaos-recovery set
// up; setup_s is the median. job-stream boots one platform per replica.
const setupRepeats = 3

// outDir holds the traced runs' span dumps, inside the checkout.
const outDir = ".bench_build/out"

// workload runs one pass of a benchmark workload and fills in its
// result. spans is nil in an untraced pass.
type workload func(cfg config, spans *spanLog, res *result) error

var workloads = map[string]workload{
	"job-stream":     runJobStream,
	"metadata-churn": runMetadataChurn,
	"chaos-recovery": runChaosRecovery,
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: job-stream, metadata-churn or chaos-recovery")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "run length; sizes each workload's fixed amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "dlaasbench: bad flags (workload %q, seconds %d, trace %d)\n",
			cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	runDeadline = wallNow().Add(hardWallLimit)
	res := newResult()
	fmt.Printf("# dlaasbench workload=%s seed=%d seconds=%d trace=%d holdout_seed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, holdoutSeed)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit())

	if cfg.trace {
		// The untraced pass is the baseline for trace.overhead; its other
		// numbers are discarded, its checks are kept.
		base := newResult()
		spans := newSpanLog()
		err := run(cfg, nil, base)
		if err == nil {
			res.attempted, res.failures = base.attempted, base.failures
			err = run(cfg, spans, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dlaasbench: %s: %v\n", cfg.workload, err)
			os.Exit(1)
		}
		res.layer("trace.overhead", res.metrics["sim_speed"].Value/base.metrics["sim_speed"].Value, "ratio", 0)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "dlaasbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# spans: %d written to %s\n", spans.len(), path)
	} else if err := run(cfg, nil, res); err != nil {
		fmt.Fprintf(os.Stderr, "dlaasbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}

	res.printReport(os.Stdout)
	line, err := res.finalLine(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlaasbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.correct() {
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "dlaasbench: check failed: %s\n", f)
		}
		os.Exit(1)
	}
}

// gitCommit names the commit being measured, or "unknown" outside a git
// checkout. The search stops at the working directory so an enclosing
// repository is never reported.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value (0 for a single reading).
	n int
	// traced marks a per-layer metric; the rest are end-to-end.
	traced bool
}

// result collects a run's metrics and correctness outcome.
type result struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failures  []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string, n int, traced bool) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, n: n, traced: traced}
}

// e2e records an end-to-end metric; layer records a per-layer one.
func (r *result) e2e(name string, value float64, unit string, n int) {
	r.set(name, value, unit, n, false)
}

func (r *result) layer(name string, value float64, unit string, n int) {
	r.set(name, value, unit, n, true)
}

// check counts one checked output; a false ok is a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// attempt counts n checked outputs; fail records one of them as wrong.
func (r *result) attempt(n int) { r.attempted += n }

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.failures) == 0 && r.attempted > 0 }

func (r *result) printReport(w *os.File) {
	for _, name := range r.order {
		m := r.metrics[name]
		kind := "e2e"
		if m.traced {
			kind = "layer"
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Fprintf(w, "# %-5s %-34s %14.6f %s%s\n", kind, name, m.Value, m.Unit, n)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(len(r.failures)) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# e2e   %-34s %14.6f failed/attempted n=%d\n", "error_rate", rate, r.attempted)
}

// finalLine renders the machine-readable result: the end-to-end metrics
// named in BENCHMARK.json, or the per-layer ones in a traced run.
func (r *result) finalLine(traced bool) (string, error) {
	names := endToEndMetrics
	if traced {
		names = perLayerMetrics
	}
	out := make(map[string]metric, len(names))
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, len(r.failures), out})
	return string(b), err
}
