package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"virtover/internal/cloudscale"
	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/obs"
	"virtover/internal/xen"
)

// The report product: exps.FullReportContext at the paper's sizes (the
// quick sizes at the smoke size) and the cmd/report defaults (1 shard,
// default warm-up).

// warmReports is how many warm reports the companion size times, and the
// fewest the full size does.
const warmReports = 8

// reportConfig returns the report configuration of p's size for seed.
func reportConfig(p params, seed int64) exps.ReportConfig {
	if p.size == sizeSmoke {
		return exps.QuickReportConfig(seed)
	}
	return exps.PaperReportConfig(seed)
}

// warmSeed derives the i-th warm report's seed. Reports offset their
// sections' seeds by less than 100, so seeds 1000 apart share no prefix or
// result with each other or with the workload seed's report.
func warmSeed(seed int64, i int) int64 { return seed*1_000_000 + 1000*int64(i+1) }

func timedReport(ctx context.Context, cfg exps.ReportConfig) (string, time.Duration, error) {
	t0 := time.Now()
	doc, err := exps.FullReportContext(ctx, cfg)
	return doc, time.Since(t0), err
}

// reportCheck hashes doc with its Figure 7-9 blocks in figure order and
// counts an out-of-order report in mismatches.
func reportCheck(res *childResult, doc string, mismatches *int) string {
	hash, inOrder, err := reportHash(doc)
	if err != nil {
		res.problem("%v", err)
	}
	if !inOrder {
		*mismatches++
	}
	return hash
}

// runReportCold is one fresh process's first report: the report's set-up.
func runReportCold(ctx context.Context, p params) (*childResult, error) {
	res := newResult()
	doc, d, err := timedReport(ctx, reportConfig(p, p.seed))
	res.op(err)
	var mismatches int
	res.Hash = reportCheck(res, doc, &mismatches)
	res.Metrics["cold_s"] = d.Seconds()
	return res, nil
}

// runReport times warm reports on distinct seeds after one cold report of
// the workload seed, then reproduces the workload seed's report and checks
// it byte for byte (figure blocks compared by figure number).
func runReport(ctx context.Context, p params) (*childResult, error) {
	if p.trace.enabled() {
		return runReportTraced(ctx, p)
	}
	res := newResult()
	var mismatches int
	doc, _, err := timedReport(ctx, reportConfig(p, p.seed))
	res.op(err)
	res.Hash = reportCheck(res, doc, &mismatches)

	least := warmReports
	if p.size == sizeSmoke {
		least = 1
	}
	var warm []float64
	deadline := time.Now().Add(p.budget(0.5))
	for i := 0; i < least || p.size == sizeFull && time.Now().Before(deadline); i++ {
		doc, d, err := timedReport(ctx, reportConfig(p, warmSeed(p.seed, i)))
		res.op(err)
		reportCheck(res, doc, &mismatches)
		warm = append(warm, d.Seconds())
	}
	res.Metrics["report_s"] = median(warm)

	again, _, err := timedReport(ctx, reportConfig(p, p.seed))
	res.op(err)
	if h := reportCheck(res, again, &mismatches); h != res.Hash {
		res.problem("seed %d report reproduced with hash %s, first run %s", p.seed, h, res.Hash)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench report: %d of %d reports printed Figures 7-9 out of order\n", mismatches, res.Attempted)
	}
	return res, nil
}

// runReportTraced is the per-layer breakdown: a cold report (its prefix
// builds feed setup_s), an untraced warm reference report (allocation, GC,
// and the base of the tracing overhead), the report's sections called one
// by one in FullReport's order with a span each, and the workload seed's
// report again at nproc shards, which must match the 1-shard bytes.
func runReportTraced(ctx context.Context, p params) (*childResult, error) {
	tr := p.trace
	res := newResult()
	reg := obs.NewRegistry()
	exps.SetObservability(reg)
	defer exps.SetObservability(nil)
	var mismatches int

	id := tr.start("report.cold", 0)
	doc, _, err := timedReport(ctx, reportConfig(p, p.seed))
	tr.end(id)
	res.op(err)
	res.Hash = reportCheck(res, doc, &mismatches)
	res.Metrics["xen.fork_builds"] = float64(reg.Counter("fork_misses_total", "").Value())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id = tr.start("report.untraced", 0)
	doc, base, err := timedReport(ctx, reportConfig(p, warmSeed(p.seed, 0)))
	tr.end(id)
	runtime.ReadMemStats(&after)
	res.op(err)
	reportCheck(res, doc, &mismatches)
	res.Metrics["report.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.Metrics["report.gc_cycles"] = float64(after.NumGC - before.NumGC)

	steps := reg.Counter("engine_steps_total", "")
	steps0 := steps.Value()
	sections, total, err := reportSections(ctx, reportConfig(p, warmSeed(p.seed, 1)), tr)
	res.op(err)
	res.Metrics["xen.engine_steps"] = float64(steps.Value() - steps0)
	for name, d := range sections {
		res.Metrics[name] = d.Seconds()
	}
	res.Metrics["trace.overhead_pct"] = 100 * (total.Seconds()/base.Seconds() - 1)

	xen.SetDefaultShards(nproc())
	id = tr.start("report.sharded", 0)
	doc, _, err = timedReport(ctx, reportConfig(p, p.seed))
	tr.end(id)
	xen.SetDefaultShards(1)
	res.op(err)
	if h := reportCheck(res, doc, &mismatches); h != res.Hash {
		res.problem("seed %d report at %d shards has hash %s, 1 shard %s", p.seed, nproc(), h, res.Hash)
	}
	res.Metrics["report.fig_order_mismatch"] = float64(mismatches)
	return res, nil
}

// reportSections calls the report's sections in FullReport's order and
// configuration, one span each, and returns the per-layer seconds and the
// total. Figures 7-9 run in figure order.
func reportSections(ctx context.Context, cfg exps.ReportConfig, tr *tracer) (map[string]time.Duration, time.Duration, error) {
	out := map[string]time.Duration{}
	root := tr.start("report.traced", 0)
	t0 := time.Now()
	sec := func(metric, span string, f func() error) error {
		id := tr.start(span, root)
		s := time.Now()
		err := f()
		tr.end(id)
		out[metric] += time.Since(s)
		return err
	}
	seed, spr := cfg.Seed, cfg.SamplesPerRun
	var model *core.Model
	steps := []struct {
		metric, span string
		f            func() error
	}{
		{"exps.rest_s", "exps.tables", func() error {
			_ = exps.RenderTableI() + exps.RenderTableII() + exps.RenderTableIII()
			return nil
		}},
		{"exps.micro_s", "exps.micro", func() error {
			for _, n := range []int{1, 2, 4} {
				if _, err := exps.MicroFigureContext(ctx, n, seed, spr); err != nil {
					return err
				}
			}
			_, err := exps.Figure5Context(ctx, seed, spr)
			return err
		}},
		{"exps.model_fit_s", "exps.model_fit", func() (err error) {
			model, err = exps.FitModelContext(ctx, seed, spr, core.FitOptions{})
			return err
		}},
		{"exps.prediction_s", "exps.prediction", func() error {
			for sets := 1; sets <= 3; sets++ {
				fig := 6 + sets
				r, err := exps.PredictionExperimentOpts(ctx, model, exps.PredictionOptions{
					Sets: sets, Duration: cfg.PredictionDuration, Seed: seed + int64(fig), WarmupSteps: cfg.WarmupSteps})
				if err != nil {
					return err
				}
				exps.P90Summary(r)
			}
			return nil
		}},
		{"exps.placement_s", "exps.placement", func() error {
			pcfg := exps.DefaultPlacementConfig(seed + 41)
			pcfg.Repeats, pcfg.Duration = cfg.PlacementRepeats, cfg.PlacementDuration
			_, err := exps.PlacementExperimentContext(ctx, model, pcfg)
			return err
		}},
		{"exps.robustness_s", "exps.robustness", func() error {
			_, err := exps.RobustnessExperiment(seed+51, spr, 0.08)
			return err
		}},
		{"exps.rest_s", "exps.isolation", func() error {
			_, err := exps.IsolationExperiment(seed+61, spr, core.FitOptions{})
			return err
		}},
		{"exps.hetero_s", "exps.hetero", func() error {
			_, err := exps.HeteroExperiment(seed+71, spr, core.FitOptions{})
			return err
		}},
		{"cloudscale.scaling_s", "cloudscale.scaling", func() error {
			r, err := exps.ScalingExperiment(exps.DefaultScalingConfig(seed + 81))
			exps.RenderScaling(r)
			return err
		}},
		{"exps.rest_s", "exps.mitigation", func() error {
			_, err := exps.MitigationExperiment(model, exps.MitigationConfig{
				Controller: true, Policy: cloudscale.VOA, Duration: 120, Seed: seed + 91})
			return err
		}},
		{"exps.rest_s", "exps.admission", func() error {
			_, err := exps.AdmissionExperiment(model, exps.AdmissionConfig{Arrivals: 10, DwellSeconds: 15, Seed: seed + 95})
			return err
		}},
		{"core.coef_ci_s", "core.coef_ci", func() error {
			single, _, err := exps.TrainingCorpus(seed, spr)
			if err != nil {
				return err
			}
			_, err = core.CoefficientCIs(single, 100, 0.90, seed+99)
			return err
		}},
	}
	for _, s := range steps {
		if err := sec(s.metric, s.span, s.f); err != nil {
			return nil, 0, fmt.Errorf("report section %s: %w", s.span, err)
		}
	}
	tr.end(root)
	return out, time.Since(t0), nil
}

// predictionHead opens the report's Figures 7-9 section.
const predictionHead = "## Trace-driven prediction (Figures 7-9)\n"

// normalizeFigures returns doc with its Figure 7-9 blocks ordered by figure
// number, and whether the report printed them in that order. FullReport
// ranges over a map to produce these blocks, so their order varies between
// runs of the same seed; comparing by figure number keeps the byte-for-byte
// check while the order defect is counted separately.
func normalizeFigures(doc string) (string, bool, error) {
	i := strings.Index(doc, predictionHead)
	if i < 0 {
		return "", false, errors.New("report has no Figures 7-9 section")
	}
	open := strings.Index(doc[i:], "```\n")
	if open < 0 {
		return "", false, errors.New("Figures 7-9 section has no code block")
	}
	start := i + open + len("```\n")
	n := strings.Index(doc[start:], "```\n")
	if n < 0 {
		return "", false, errors.New("Figures 7-9 code block is not closed")
	}
	end := start + n
	type block struct {
		fig  int
		text string
	}
	var blocks []block
	for _, b := range strings.SplitAfter(doc[start:end], "\n\n") {
		if b == "" {
			continue
		}
		var fig int
		if _, err := fmt.Sscanf(b, "Figure %d", &fig); err != nil {
			return "", false, fmt.Errorf("Figures 7-9 block %q: %w", firstLine(b), err)
		}
		blocks = append(blocks, block{fig, b})
	}
	if len(blocks) != 3 {
		return "", false, fmt.Errorf("Figures 7-9 section has %d blocks, want 3", len(blocks))
	}
	less := func(a, b int) bool { return blocks[a].fig < blocks[b].fig }
	inOrder := sort.SliceIsSorted(blocks, less)
	sort.SliceStable(blocks, less)
	var sb strings.Builder
	sb.WriteString(doc[:start])
	for _, b := range blocks {
		sb.WriteString(b.text)
	}
	sb.WriteString(doc[end:])
	return sb.String(), inOrder, nil
}

// reportHash fingerprints a report after normalizeFigures.
func reportHash(doc string) (string, bool, error) {
	norm, inOrder, err := normalizeFigures(doc)
	if err != nil {
		return "", false, err
	}
	sum := sha256.Sum256([]byte(norm))
	return hex.EncodeToString(sum[:8]), inOrder, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
