package exps

import (
	"context"
	"fmt"
	"strings"

	"virtover/internal/cloudscale"
	"virtover/internal/core"
	"virtover/internal/obs"
)

// ReportConfig scales the full-reproduction report.
type ReportConfig struct {
	// Seed drives every experiment.
	Seed int64
	// SamplesPerRun is the micro-benchmark campaign depth (paper: 120).
	SamplesPerRun int
	// PredictionDuration is the seconds per client count in Figures 7-9.
	PredictionDuration int
	// PlacementRepeats is the random orders per Figure 10 cell.
	PlacementRepeats int
	// PlacementDuration is the seconds per Figure 10 run.
	PlacementDuration int
	// WarmupSteps is the settle phase of the trace-driven prediction runs:
	// 0 selects DefaultWarmupSteps (the historical five), negative
	// disables it. Warmed prefixes are cached and forked, so repeated
	// reports re-settle nothing.
	WarmupSteps int
	// Extensions includes the beyond-the-paper studies.
	Extensions bool
	// Obs, when non-nil, counts report progress (sections, figures) on
	// that registry. Nil falls back to the package-wide registry set via
	// SetObservability — which is also how the campaigns inside each
	// section pick up instrumentation.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per report section so the
	// self-profile shows where a report's wall time went.
	Tracer *obs.Tracer
}

// QuickReportConfig finishes in seconds; PaperReportConfig uses the
// paper's sizes.
func QuickReportConfig(seed int64) ReportConfig {
	return ReportConfig{
		Seed: seed, SamplesPerRun: 15, PredictionDuration: 60,
		PlacementRepeats: 3, PlacementDuration: 60, Extensions: true,
	}
}

// PaperReportConfig mirrors the paper's experiment sizes.
func PaperReportConfig(seed int64) ReportConfig {
	return ReportConfig{
		Seed: seed, SamplesPerRun: 120, PredictionDuration: 600,
		PlacementRepeats: 10, PlacementDuration: 120, Extensions: true,
	}
}

// FullReport runs the complete reproduction — every table, every figure,
// the fitted model, and (optionally) the extension studies — and renders a
// markdown report. It is FullReportContext under context.Background().
func FullReport(cfg ReportConfig) (string, error) {
	return FullReportContext(context.Background(), cfg)
}

// FullReportContext is FullReport with cancellation. The heavyweight
// sections (micro-benchmark figures, corpus build + model fit, prediction
// and placement campaigns) abort within one engine step of ctx cancel; the
// remaining extension sections check ctx at their boundaries. A canceled
// report returns "" and ctx.Err().
func FullReportContext(ctx context.Context, cfg ReportConfig) (string, error) {
	if cfg.SamplesPerRun <= 0 {
		cfg.SamplesPerRun = 15
	}
	reg := observability(cfg.Obs)
	sectionsC := reg.Counter("report_sections_total", "report sections rendered")
	figuresC := reg.Counter("report_figures_total", "figures rendered into the report")
	root := cfg.Tracer.Start("report")
	defer root.End()
	var sp *obs.Span
	section := func(name string) error {
		sp.End()
		sp = root.Start(name)
		sectionsC.Inc()
		return ctx.Err()
	}
	defer func() { sp.End() }()

	var b strings.Builder
	b.WriteString("# Virtualization-overhead reproduction report\n\n")
	fmt.Fprintf(&b, "Seed %d, %d samples per campaign.\n\n", cfg.Seed, cfg.SamplesPerRun)

	// Tables.
	if err := section("tables"); err != nil {
		return "", err
	}
	b.WriteString("## Tables\n\n```\n")
	b.WriteString(RenderTableI())
	b.WriteString("\n")
	b.WriteString(RenderTableII())
	b.WriteString("\n")
	b.WriteString(RenderTableIII())
	b.WriteString("```\n\n")

	// Micro-benchmark figures.
	if err := section("micro-benchmarks"); err != nil {
		return "", err
	}
	b.WriteString("## Micro-benchmark study (Figures 2-5)\n\n```\n")
	for _, n := range []int{1, 2, 4} {
		figs, err := MicroFigureContext(ctx, n, cfg.Seed, cfg.SamplesPerRun)
		if err != nil {
			return "", err
		}
		for _, f := range figs {
			b.WriteString(f.Render())
			b.WriteString("\n")
			figuresC.Inc()
		}
	}
	figs5, err := Figure5Context(ctx, cfg.Seed, cfg.SamplesPerRun)
	if err != nil {
		return "", err
	}
	for _, f := range figs5 {
		b.WriteString(f.Render())
		b.WriteString("\n")
		figuresC.Inc()
	}
	b.WriteString("```\n\n")

	// Model.
	if err := section("model-fit"); err != nil {
		return "", err
	}
	b.WriteString("## Overhead estimation model (Section V)\n\n```\n")
	model, err := FitModelContext(ctx, cfg.Seed, cfg.SamplesPerRun, core.FitOptions{})
	if err != nil {
		return "", err
	}
	b.WriteString(model.String())
	b.WriteString("```\n\n")

	// Prediction experiments.
	if err := section("prediction"); err != nil {
		return "", err
	}
	b.WriteString("## Trace-driven prediction (Figures 7-9)\n\n")
	b.WriteString("90th-percentile |p-m|/m errors in percent.\n\n```\n")
	for i, fig := range []int{7, 8, 9} { // figure order; Figure 7+i runs i+1 RUBiS sets
		sets := i + 1
		results, err := PredictionExperimentOpts(ctx, model, PredictionOptions{
			Sets: sets, Duration: cfg.PredictionDuration,
			Seed: cfg.Seed + int64(fig), WarmupSteps: cfg.WarmupSteps,
		})
		if err != nil {
			return "", err
		}
		figuresC.Inc()
		fmt.Fprintf(&b, "Figure %d (%d RUBiS set(s)):\n", fig, sets)
		fmt.Fprintf(&b, "%8s %9s %9s %9s %9s\n", "clients", "PM1 CPU", "PM2 CPU", "PM1 BW", "PM2 BW")
		for _, s := range P90Summary(results) {
			fmt.Fprintf(&b, "%8d %9.2f %9.2f %9.2f %9.2f\n", s.Clients, s.PM1CPU, s.PM2CPU, s.PM1BW, s.PM2BW)
		}
		b.WriteString("\n")
	}
	b.WriteString("```\n\n")

	// Placement.
	if err := section("placement"); err != nil {
		return "", err
	}
	b.WriteString("## Overhead-aware provisioning (Figure 10)\n\n```\n")
	pcfg := DefaultPlacementConfig(cfg.Seed + 41)
	pcfg.Repeats = cfg.PlacementRepeats
	pcfg.Duration = cfg.PlacementDuration
	presults, err := PlacementExperimentContext(ctx, model, pcfg)
	if err != nil {
		return "", err
	}
	figuresC.Inc()
	fmt.Fprintf(&b, "%10s %8s %18s %15s\n", "scenario", "policy", "throughput(req/s)", "total time(s)")
	for _, r := range presults {
		fmt.Fprintf(&b, "%10d %8s %18.2f %15.1f\n", r.Scenario, r.Policy, r.MeanThroughput(), r.MeanTotalTime())
	}
	b.WriteString("```\n\n")

	if !cfg.Extensions {
		return b.String(), nil
	}

	// Extensions.
	if err := section("extensions"); err != nil {
		return "", err
	}
	b.WriteString("## Extensions beyond the paper\n\n")

	b.WriteString("### Robustness: OLS vs LMS under tool glitches\n\n```\n")
	rob, err := RobustnessExperiment(cfg.Seed+51, cfg.SamplesPerRun, 0.08)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "glitch probability %.0f%%: OLS Dom0 MAE %.2f, LMS %.2f (clean eval, %d samples)\n",
		100*rob.GlitchProb, rob.OLSDom0MAE, rob.LMSDom0MAE, rob.EvalN)
	b.WriteString("```\n\n")

	b.WriteString("### Workload isolation: Table II ladders vs coupled tools\n\n```\n")
	iso, err := IsolationExperiment(cfg.Seed+61, cfg.SamplesPerRun, core.FitOptions{})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Dom0 MAE: isolated %.2f vs coupled %.2f (held-out mixes, %d samples)\n",
		iso.IsolatedDom0MAE, iso.CoupledDom0MAE, iso.EvalN)
	b.WriteString("```\n\n")

	b.WriteString("### Heterogeneous configurations (the paper's future work)\n\n```\n")
	het, err := HeteroExperiment(cfg.Seed+71, cfg.SamplesPerRun, core.FitOptions{})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "hypervisor MAE: base %.3f vs config-aware %.3f; Dom0: %.3f vs %.3f\n",
		het.BaseHypMAE, het.ConfigHypMAE, het.BaseDom0MAE, het.ConfigDom0MAE)
	b.WriteString("```\n\n")

	b.WriteString("### Elastic scaling (CloudScale core)\n\n```\n")
	sres, err := ScalingExperiment(DefaultScalingConfig(cfg.Seed + 81))
	if err != nil {
		return "", err
	}
	b.WriteString(RenderScaling(sres))
	b.WriteString("```\n\n")

	b.WriteString("### Hotspot mitigation\n\n```\n")
	mit, err := MitigationExperiment(model, MitigationConfig{
		Controller: true, Policy: cloudscale.VOA, Duration: 120, Seed: cfg.Seed + 91,
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "migrations: %d; throughput %.1f -> %.1f req/s (offered %.1f)\n",
		len(mit.Migrations), mit.ThroughputBefore, mit.ThroughputAfter, mit.OfferedRate)
	b.WriteString("```\n\n")

	b.WriteString("### Admission control\n\n```\n")
	adm, err := AdmissionExperiment(model, AdmissionConfig{Arrivals: 10, DwellSeconds: 15, Seed: cfg.Seed + 95})
	if err != nil {
		return "", err
	}
	for _, r := range adm {
		fmt.Fprintf(&b, "%s: admitted %d/%d, overloaded %.0f%% of the time, mean PM CPU %.1f%%\n",
			r.Policy, r.Admitted, r.Offered, 100*r.OverloadFrac, r.MeanPMCPU)
	}
	b.WriteString("```\n\n")

	// Coefficient confidence.
	b.WriteString("### Coefficient confidence (90% bootstrap)\n\n```\n")
	single, _, err := trainingCorpusCtx(ctx, cfg.Seed, cfg.SamplesPerRun)
	if err != nil {
		return "", err
	}
	cis, err := core.CoefficientCIs(single, 100, 0.90, cfg.Seed+99)
	if err != nil {
		return "", err
	}
	names := []string{"const", "cpu", "mem", "io", "bw"}
	for _, t := range core.Targets() {
		fmt.Fprintf(&b, "%s:\n", t)
		for j, n := range names {
			fmt.Fprintf(&b, "  %-6s %10.5f  [%10.5f, %10.5f]\n", n, cis[t].Point[j], cis[t].Lo[j], cis[t].Hi[j])
		}
	}
	b.WriteString("```\n")
	return b.String(), nil
}
