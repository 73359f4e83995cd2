package virtover_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"virtover"
)

func TestFacadeWorkloadComposition(t *testing.T) {
	mixed := virtover.CombineWorkloads(
		virtover.NewWorkload(virtover.WorkloadCPU, 20, virtover.WorkloadOptions{}),
		virtover.NewWorkload(virtover.WorkloadIO, 30, virtover.WorkloadOptions{}),
	)
	d := mixed.Demand(0)
	if d.CPU != 20 || d.IOBlocks != 30 {
		t.Errorf("combined demand = %+v", d)
	}
	replay := virtover.ReplayWorkload([]virtover.Demand{{CPU: 5}, {CPU: 7}}, false)
	if got := replay.Demand(1.5).CPU; got != 7 {
		t.Errorf("replay = %v, want 7", got)
	}
	steps := virtover.StepsWorkload([]virtover.WorkloadPhase{
		{Seconds: 10, Demand: virtover.Demand{CPU: 33}},
	})
	if got := steps.Demand(5).CPU; got != 33 {
		t.Errorf("steps = %v, want 33", got)
	}
}

func TestFacadeModelPersistence(t *testing.T) {
	m := apiFittedModel(t)
	var buf bytes.Buffer
	if err := virtover.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := virtover.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []virtover.Vector{virtover.V(40, 128, 10, 200)}
	if m.Predict(in) != back.Predict(in) {
		t.Error("persisted model predicts differently")
	}
}

func TestFacadeScenario(t *testing.T) {
	sc, err := virtover.ParseScenario([]byte(`{
	  "seed": 3, "duration": 10,
	  "pms": [{"name": "p"}],
	  "vms": [{"name": "v", "pm": "p", "workload": {"kind": "cpu", "level": 25}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	series, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 10 {
		t.Fatalf("samples = %d", len(series))
	}
	agg := virtover.NewStreamAggregator()
	agg.ObserveSeries(series)
	sum := agg.Summary()
	if len(sum) != 1 || sum[0].PMCPU.N != 10 {
		t.Fatalf("aggregated %+v", sum)
	}
	if math.Abs(sum[0].PMCPU.Mean-(25+17+5)) > 8 {
		t.Errorf("mean PM CPU = %v, want ~47", sum[0].PMCPU.Mean)
	}

	// The same series through a facade Fanout with a serial function sink.
	hosts := 0
	virtover.PushSamples(series, virtover.Fanout{
		virtover.NewStreamAggregator(),
		virtover.NewSerialSink(func(batch []virtover.Sample) {
			for _, s := range batch {
				if s.Kind == virtover.KindHost {
					hosts++
				}
			}
		}),
	})
	if hosts != 10 {
		t.Errorf("serial sink saw %d host rows, want 10", hosts)
	}
}

func TestFacadeFigurePlot(t *testing.T) {
	figs, err := virtover.Figure5(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	plot := figs[0].Plot()
	if !strings.Contains(plot, "Figure 5(a)") || !strings.Contains(plot, "Dom0") {
		t.Errorf("plot missing labels:\n%s", plot)
	}
}

func TestFacadeAdmission(t *testing.T) {
	m := apiFittedModel(t)
	ctl, err := virtover.NewAdmissionController(virtover.Placer{
		Policy:   virtover.VOA,
		Model:    m,
		Capacity: virtover.V(225.4, 2048, 5000, 1e6),
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ctl.Check(nil, virtover.V(50, 256, 5, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admit {
		t.Errorf("single moderate guest should be admitted: %+v", dec)
	}
	results, err := virtover.AdmissionExperiment(m, virtover.AdmissionConfig{Arrivals: 6, DwellSeconds: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestFacadeScaling(t *testing.T) {
	f := virtover.NewSignaturePredictor()
	f.Padding = 0.1
	s, err := virtover.NewScaler(virtover.DefaultScalerConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	var cap float64
	for i := 0; i < 10; i++ {
		cap = s.Step("vm", virtover.V(30, 0, 0, 0))
	}
	if cap < 25 || cap > 50 {
		t.Errorf("cap = %v, want near 33", cap)
	}
	cfg := virtover.DefaultScalingConfig(2)
	cfg.Duration = 150
	results, err := virtover.ScalingExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(virtover.RenderScaling(results), "fft-signature") {
		t.Error("render missing policy")
	}
}

func TestFacadeMitigation(t *testing.T) {
	m := apiFittedModel(t)
	res, err := virtover.MitigationExperiment(m, virtover.MitigationConfig{
		Controller: true, Policy: virtover.VOA, Duration: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) == 0 {
		t.Error("expected migrations")
	}
}

func TestFacadeHeteroAndStudies(t *testing.T) {
	cmp, err := virtover.HeteroExperiment(3, 6, virtover.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.N == 0 {
		t.Error("empty hetero eval")
	}
	rob, err := virtover.RobustnessExperiment(3, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rob.TrainN == 0 {
		t.Error("empty robustness train set")
	}
	iso, err := virtover.IsolationExperiment(3, 8, virtover.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iso.EvalN == 0 {
		t.Error("empty isolation eval")
	}
	cfgM, err := virtover.TrainConfig([]virtover.ConfigSample{}, nil, virtover.FitOptions{})
	if err == nil || cfgM != nil {
		t.Error("empty config training should fail")
	}
}

func TestFacadePlacementExperiment(t *testing.T) {
	m := apiFittedModel(t)
	cfg := virtover.DefaultPlacementConfig(5)
	cfg.Repeats = 1
	cfg.Duration = 20
	results, err := virtover.PlacementExperiment(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	figs := virtover.Figure10(results)
	if len(figs) != 2 {
		t.Fatalf("figures = %d", len(figs))
	}
	grid := virtover.GuestConfig{Util: virtover.V(10, 10, 0, 0), VCPUs: 2}
	_ = grid // type compiles through the facade
}

func TestFacadeQuickReport(t *testing.T) {
	cfg := virtover.QuickReportConfig(2)
	cfg.SamplesPerRun = 6
	cfg.PredictionDuration = 10
	cfg.PlacementRepeats = 1
	cfg.PlacementDuration = 15
	cfg.Extensions = false
	doc, err := virtover.FullReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "Figure 10") {
		t.Error("report incomplete")
	}
	if virtover.PaperReportConfig(1).SamplesPerRun != 120 {
		t.Error("paper config wrong")
	}
}

func TestFacadeTraceHelpers(t *testing.T) {
	m := apiFittedModel(t)
	series, err := virtover.RecordRUBiSTrace(1, 300, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := virtover.EvaluateSeries(m, series)
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range errs {
		if len(te.IO) != 8 {
			t.Errorf("%s IO errors = %d", te.PM, len(te.IO))
		}
	}
}

func TestFacadeHotspotObserve(t *testing.T) {
	ctl, err := virtover.NewHotspotController(virtover.DefaultHotspotConfig(virtover.Placer{
		Policy:   virtover.VOU,
		Capacity: virtover.V(225.4, 2048, 5000, 1e6),
	}))
	if err != nil {
		t.Fatal(err)
	}
	ms := []virtover.Measurement{
		{PM: "a", VMs: map[string]virtover.Vector{
			"x": virtover.V(110, 256, 0, 0),
			"y": virtover.V(100, 256, 0, 0),
		}},
		{PM: "b", VMs: map[string]virtover.Vector{}},
	}
	var acts []virtover.Migration
	for i := 0; i < 4 && len(acts) == 0; i++ {
		acts, err = ctl.Observe(ms)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(acts) != 1 || acts[0].To != "b" {
		t.Errorf("actions = %+v", acts)
	}
}
