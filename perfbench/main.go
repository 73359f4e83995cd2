// Command perfbench is the repository's end-to-end benchmark. It drives the
// two products — the paper-reproduction report and the estimation service —
// plus the metered datacenter fleet, checks their outputs, and prints one
// JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload report|fleet|learn --seed N --seconds S --trace 0|1
//
// Each workload has a primary product that it runs at full size: `report`
// the reproduction report, `fleet` the metered 2000-PM datacenter, `learn`
// the estimation service. The result line must carry every end-to-end
// metric (or, traced, every per-layer metric), so each workload also runs
// the other two products once at a fixed small companion size. Every
// product runs in its own child process, so heaps, GC pacing and peak RSS
// never mix: setup_s and peak_rss_mb always belong to the primary product.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// products in the order a run measures them; a workload is named after its
// primary product. The fleet runs last: for several seconds after it keeps
// both CPUs busy, the host serves this process slowly, and the learn
// product's latency tails doubled when it followed the fleet.
var products = []string{"report", "learn", "fleet"}

// metric names one reported number with its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. BENCHMARK.json lists
// the same names and units (TestMetricTablesMatchBenchmarkJSON). The p90
// latencies and the ingest capacity are per-layer diagnostics, not
// end-to-end metrics: on a shared 2-vCPU host a few runs in thirty had
// their p90 tripled by interference, and the capacity moved twofold from
// run to run, far outside any bound a regression gate could use.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"report_s", "s"},
	{"fleet_pm_steps_per_s", "PM-steps/s"},
	{"ingest_p50_ms", "ms"},
	{"estimate_p50_ms", "ms"},
	{"refit_sweep_s", "s"},
}

// perLayer are the traced run's metrics, grouped by the product that
// produces them.
var perLayer = []metric{
	{"exps.micro_s", "s"},
	{"exps.model_fit_s", "s"},
	{"exps.prediction_s", "s"},
	{"exps.placement_s", "s"},
	{"exps.robustness_s", "s"},
	{"exps.hetero_s", "s"},
	{"exps.rest_s", "s"},
	{"cloudscale.scaling_s", "s"},
	{"core.coef_ci_s", "s"},
	{"report.alloc_mb", "MB"},
	{"report.gc_cycles", "count"},
	{"xen.fork_builds", "count"},
	{"xen.engine_steps", "count"},
	{"report.fig_order_mismatch", "count"},
	{"trace.overhead_pct", "%"},

	{"xen.build_s", "s"},
	{"xen.step_ms", "ms"},
	{"monitor.meter_step_ms", "ms"},
	{"xen.shard_speedup", "x"},
	{"fleet.allocs_per_step", "count"},

	{"serve.ingest_call_ms", "ms"},
	{"serve.ingest_http_ms", "ms"},
	{"serve.ingest_max_rate", "samples/s"},
	{"serve.estimate_http_ms", "ms"},
	{"core.predict_us", "us"},
	{"core.train_ms", "ms"},
	{"core.compare_ms", "ms"},
	{"serve.refit_ms", "ms"},
	{"serve.refit_alloc_mb", "MB"},
	{"serve.refits", "count"},
	{"serve.swaps", "count"},
	{"serve.swap_ratio", "ratio"},
	{"serve.ingest_p90_under_refit_ms", "ms"},
	{"serve.ingest_p90_ms", "ms"},
	{"serve.estimate_p90_ms", "ms"},
	{"serve.ingest_p99_ms", "ms"},
	{"serve.estimate_p99_ms", "ms"},
	{"gen.lag_p90_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.invalid_phases", "count"},
	{"host.probe_mops", "Mops/s"},
}

// childTimeout bounds one child process; a run must end within 180 s.
const childTimeout = 150 * time.Second

// traceDir receives the traced run's span files, inside the checkout.
const traceDir = ".bench_build/trace"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "report, fleet or learn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measuring time of one run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	child := fs.String("child", "", "internal: run one product in this process")
	size := fs.String("size", sizeFull, "internal: full, companion or smoke product size")
	spans := fs.String("spans", "", "internal: file the child writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *child != "" {
		if *size != sizeFull && *size != sizeCompanion && *size != sizeSmoke {
			fmt.Fprintf(stderr, "perfbench: unknown -size %q\n", *size)
			return 2
		}
		p := params{seed: *seed, seconds: *seconds, size: *size, spansPath: *spans}
		if *spans != "" {
			p.trace = newTracer()
		}
		res, err := runChild(ctx, *child, p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", *child, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", *child, err)
			return 1
		}
		return 0
	}
	if !isProduct(*workload) {
		fmt.Fprintf(stderr, "perfbench: --workload must be one of %s\n", strings.Join(products, ", "))
		return 2
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	out, err := runWorkload(ctx, runConfig{workload: *workload, seed: *seed, seconds: *seconds,
		traced: *traceFlag == 1, spansDir: traceDir}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func isProduct(name string) bool {
	for _, p := range products {
		if p == name {
			return true
		}
	}
	return false
}

// Product sizes: the workload's own product runs full, the others at the
// companion size. The benchmark's own tests run every product at the smoke
// size, which finishes in seconds.
const (
	sizeFull      = "full"
	sizeCompanion = "companion"
	sizeSmoke     = "smoke"
)

// params is what a child needs to run one product.
type params struct {
	seed      int64
	seconds   int
	size      string
	trace     *tracer // nil: untraced run
	spansPath string
}

// budget returns share of the run's measuring time.
func (p params) budget(share float64) time.Duration {
	return time.Duration(share * float64(p.seconds) * float64(time.Second))
}

// childResult is one product's outcome, passed from a child to the parent
// as one JSON line.
type childResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	// Hash is the figure-order-normalized hash of the workload seed's
	// report (report children only).
	Hash string `json:"hash,omitempty"`
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *childResult) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.problem("operation failed: %v", err)
	}
}

// problem records a failed output check.
func (r *childResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func newResult() *childResult { return &childResult{Metrics: map[string]float64{}} }

func runChild(ctx context.Context, name string, p params) (*childResult, error) {
	var res *childResult
	var err error
	switch name {
	case "report-cold":
		res, err = runReportCold(ctx, p)
	case "report":
		res, err = runReport(ctx, p)
	case "fleet":
		res, err = runFleet(ctx, p)
	case "learn":
		res, err = runLearn(ctx, p)
	default:
		return nil, fmt.Errorf("unknown product %q", name)
	}
	if err != nil {
		return nil, err
	}
	if p.trace != nil {
		if err := p.trace.write(p.spansPath); err != nil {
			return nil, err
		}
	}
	if !p.trace.enabled() {
		res.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	return res, nil
}

// spawn runs one product in a child process of this binary and waits for
// it.
func spawn(ctx context.Context, child string, args ...string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-child", child}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", child, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child %s: decoding its result: %w", child, err)
	}
	return &res, nil
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// coldReports is how many fresh processes measure the report's set-up.
const coldReports = 5

// runConfig is one run of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool   // every product at the smoke size
	spansDir string // where a traced run writes its span files
}

func runWorkload(ctx context.Context, cfg runConfig, stderr io.Writer) (*output, error) {
	probeBefore := hostProbe()
	merged := newResult()
	correct := true
	absorb := func(product string, r *childResult) {
		merged.Attempted += r.Attempted
		merged.Failed += r.Failed
		for _, p := range r.Problems {
			correct = false
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", product, p)
		}
		primary := product == cfg.workload
		for k, v := range r.Metrics {
			if (k == "setup_s" || k == "peak_rss_mb") && !primary {
				continue
			}
			merged.Metrics[k] = v
		}
	}
	if cfg.traced {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return nil, err
		}
	}
	colds := coldReports
	if cfg.smoke {
		colds = 1
	}
	for _, product := range products {
		size := sizeCompanion
		switch {
		case cfg.smoke:
			size = sizeSmoke
		case product == cfg.workload:
			size = sizeFull
		}
		args := []string{"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds), "-size", size}
		if cfg.traced {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, product))
			args = append(args, "-spans", path)
			fmt.Fprintf(stderr, "perfbench: %s spans -> %s\n", product, path)
		}
		var cold, rss []float64
		var coldHash string
		if product == "report" && product == cfg.workload && !cfg.traced {
			// The report's set-up is the cold first report of a fresh
			// process: empty fork-prefix cache and lazy set-up, what one
			// cmd/report run pays.
			for i := 0; i < colds; i++ {
				r, err := spawn(ctx, "report-cold", args...)
				if err != nil {
					return nil, err
				}
				cold = append(cold, r.Metrics["cold_s"])
				rss = append(rss, r.Metrics["peak_rss_mb"])
				delete(r.Metrics, "cold_s")
				delete(r.Metrics, "peak_rss_mb")
				if i == 0 {
					coldHash = r.Hash
				} else if r.Hash != coldHash {
					r.problem("cold report %d hash %s differs from %s", i, r.Hash, coldHash)
				}
				absorb(product, r)
			}
		}
		r, err := spawn(ctx, product, args...)
		if err != nil {
			return nil, err
		}
		if cold != nil {
			// A report process's peak RSS swings with where its GC cycles
			// fall; the median over the run's report processes is steady.
			r.Metrics["peak_rss_mb"] = median(append(rss, r.Metrics["peak_rss_mb"]))
			r.Metrics["setup_s"] = median(cold)
			if r.Hash != coldHash {
				r.problem("warm reproduction hash %s differs from the cold report's %s", r.Hash, coldHash)
			}
		}
		absorb(product, r)
	}
	probeAfter := hostProbe()
	fmt.Fprintf(stderr, "perfbench: host probe %.1f Mops/s before, %.1f after\n", probeBefore, probeAfter)
	merged.Metrics["host.probe_mops"] = (probeBefore + probeAfter) / 2

	table := endToEnd
	if cfg.traced {
		table = perLayer
	}
	out := &output{Correct: correct && merged.Failed == 0, Attempted: merged.Attempted, Failed: merged.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range table {
		v, ok := merged.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return out, nil
}

// nproc is the host's CPU count: the fleet's shard count and the most
// sender connections the load generator opens.
func nproc() int { return runtime.NumCPU() }
