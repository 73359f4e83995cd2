// Benchmark harness: one benchmark per table and figure of the paper, plus
// the ablation benchmarks called out in DESIGN.md and micro-benchmarks of
// the core operations. Each figure benchmark regenerates its figure's data
// end to end (simulation + measurement + analysis) per iteration, with
// scaled-down sample counts so the suite completes quickly; cmd/ binaries
// run the full-size campaigns.
//
// Figure benchmarks report domain metrics via b.ReportMetric (prediction
// error percentiles, throughput gaps) so regressions in reproduction
// quality are visible alongside timing.
package virtover_test

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"virtover"
	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/monitor"
	"virtover/internal/sampling"
	"virtover/internal/stats"
	"virtover/internal/trace"
	"virtover/internal/units"
	"virtover/internal/workload"
	"virtover/internal/xen"
)

// ---- shared fixtures ----

var (
	benchModelOnce sync.Once
	benchModel     *virtover.Model
	benchModelErr  error

	benchCorpusOnce sync.Once
	benchSingle     []core.Sample
	benchMulti      []core.Sample
	benchCorpusErr  error

	benchPaperCorpusOnce sync.Once
	benchPaperSingle     []core.Sample
	benchPaperCorpusErr  error
)

func benchFittedModel(b *testing.B) *virtover.Model {
	b.Helper()
	benchModelOnce.Do(func() {
		benchModel, benchModelErr = virtover.FitModel(2024, 20, virtover.FitOptions{})
	})
	if benchModelErr != nil {
		b.Fatal(benchModelErr)
	}
	return benchModel
}

func benchCorpus(b *testing.B) ([]core.Sample, []core.Sample) {
	b.Helper()
	benchCorpusOnce.Do(func() {
		benchSingle, benchMulti, benchCorpusErr = exps.TrainingCorpus(2024, 20)
	})
	if benchCorpusErr != nil {
		b.Fatal(benchCorpusErr)
	}
	return benchSingle, benchMulti
}

// benchPaperCorpus is the single-VM half of the paper-size training
// corpus (120 samples per campaign), the one the seed-1 report's
// coefficient confidence table bootstraps.
func benchPaperCorpus(b *testing.B) []core.Sample {
	b.Helper()
	benchPaperCorpusOnce.Do(func() {
		benchPaperSingle, _, benchPaperCorpusErr = exps.TrainingCorpus(1, exps.PaperReportConfig(1).SamplesPerRun)
	})
	if benchPaperCorpusErr != nil {
		b.Fatal(benchPaperCorpusErr)
	}
	return benchPaperSingle
}

// ---- Tables ----

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if virtover.RenderTableI() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if virtover.RenderTableII() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if virtover.RenderTableIII() == "" {
			b.Fatal("empty table")
		}
	}
}

// ---- Figures 2-5: micro-benchmark study ----

func benchMicroFigure(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		figs, err := virtover.MicroFigure(n, int64(i), 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 5 {
			b.Fatalf("want 5 panels, got %d", len(figs))
		}
	}
}

func BenchmarkFig2(b *testing.B) { benchMicroFigure(b, 1) }
func BenchmarkFig3(b *testing.B) { benchMicroFigure(b, 2) }
func BenchmarkFig4(b *testing.B) { benchMicroFigure(b, 4) }

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := virtover.Figure5(int64(i), 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 2 {
			b.Fatalf("want 2 panels, got %d", len(figs))
		}
	}
}

// ---- Figures 7-9: trace-driven prediction ----

func benchPrediction(b *testing.B, sets int) {
	b.Helper()
	model := benchFittedModel(b)
	var lastP90 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := virtover.PredictionExperiment(model, sets, []int{300, 700}, 30, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		lastP90 = stats.Percentile(results[0].PM1CPU, 90)
	}
	b.ReportMetric(lastP90, "p90err%")
}

func BenchmarkFig7(b *testing.B) { benchPrediction(b, 1) }
func BenchmarkFig8(b *testing.B) { benchPrediction(b, 2) }
func BenchmarkFig9(b *testing.B) { benchPrediction(b, 3) }

// ---- Figure 10: VOA vs VOU placement ----

func BenchmarkFig10(b *testing.B) {
	model := benchFittedModel(b)
	cfg := virtover.DefaultPlacementConfig(5)
	cfg.Repeats = 2
	cfg.Duration = 30
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		results, err := virtover.PlacementExperiment(model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var voa3, vou3 float64
		for _, r := range results {
			if r.Scenario == 3 {
				if r.Policy == virtover.VOA {
					voa3 = r.MeanThroughput()
				} else {
					vou3 = r.MeanThroughput()
				}
			}
		}
		gap = voa3 - vou3
	}
	b.ReportMetric(gap, "voa-vou-req/s")
}

// ---- Ablations (DESIGN.md section 7) ----

// OLS vs LMS fitting: time and resulting held-out error.
func BenchmarkAblationFitting(b *testing.B) {
	single, multi := benchCorpus(b)
	for _, cse := range []struct {
		name string
		opt  core.FitOptions
	}{
		{"OLS", core.FitOptions{Method: core.MethodOLS}},
		{"LMS", core.FitOptions{Method: core.MethodLMS, LMS: stats.LMSOptions{Subsamples: 200, Seed: 9}}},
	} {
		b.Run(cse.name, func(b *testing.B) {
			var m *core.Model
			var err error
			for i := 0; i < b.N; i++ {
				m, err = core.Train(single, multi, cse.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(evalModelError(m, multi), "mae-dom0cpu")
		})
	}
}

// With vs without the co-location term alpha(N)*o(sum M) of Eq. 3.
func BenchmarkAblationColocationTerm(b *testing.B) {
	single, multi := benchCorpus(b)
	full, err := core.Train(single, multi, core.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	soloOnly, err := core.Train(single, nil, core.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cse := range []struct {
		name string
		m    *core.Model
	}{{"Eq3-with-o", full}, {"Eq2-only", soloOnly}} {
		b.Run(cse.name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = evalModelError(cse.m, multi)
			}
			b.ReportMetric(mae, "mae-dom0cpu")
		})
	}
}

// Linear alpha(N)=N-1 vs a constant alpha=1 for every co-location level.
func BenchmarkAblationAlpha(b *testing.B) {
	single, multi := benchCorpus(b)
	m, err := core.Train(single, multi, core.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	alphas := map[string]func(int) float64{
		"linear": core.Alpha,
		"constant": func(n int) float64 {
			if n <= 1 {
				return 0
			}
			return 1
		},
	}
	for name, alpha := range alphas {
		b.Run(name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				var sum, cnt float64
				for _, s := range multi {
					pred := m.A[core.TargetDom0CPU].Apply(s.VMSum) + alpha(s.N)*m.O[core.TargetDom0CPU].Apply(s.VMSum)
					d := pred - s.Dom0CPU
					if d < 0 {
						d = -d
					}
					sum += d
					cnt++
				}
				mae = sum / cnt
			}
			b.ReportMetric(mae, "mae-dom0cpu")
		})
	}
}

// Training-set size sensitivity.
func BenchmarkAblationTrainSize(b *testing.B) {
	for _, samples := range []int{5, 20, 60} {
		b.Run(map[int]string{5: "tiny", 20: "small", 60: "paper-scale"}[samples], func(b *testing.B) {
			var m *virtover.Model
			var err error
			for i := 0; i < b.N; i++ {
				m, err = virtover.FitModel(77, samples, virtover.FitOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			_, multi := benchCorpus(b)
			b.ReportMetric(evalModelError(m, multi), "mae-dom0cpu")
		})
	}
}

// Configuration-aware model vs the base model on heterogeneous VM
// configurations (the paper's future-work extension).
func BenchmarkAblationConfigModel(b *testing.B) {
	var cmp exps.HeteroComparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = exps.HeteroExperiment(17, 10, core.FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.BaseHypMAE, "base-hyp-mae")
	b.ReportMetric(cmp.ConfigHypMAE, "config-hyp-mae")
}

// End-to-end robustness: OLS vs LMS under glitch-prone measurement tools.
func BenchmarkAblationRobustness(b *testing.B) {
	var res exps.RobustnessResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exps.RobustnessExperiment(29, 15, 0.08)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OLSDom0MAE, "ols-dom0-mae")
	b.ReportMetric(res.LMSDom0MAE, "lms-dom0-mae")
}

// Training-workload isolation: lookbusy/ping ladders vs coupled tools
// (httperf, iperf, Fibonacci) as the training diet.
func BenchmarkAblationWorkloadIsolation(b *testing.B) {
	var res exps.IsolationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exps.IsolationExperiment(41, 15, core.FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IsolatedDom0MAE, "isolated-dom0-mae")
	b.ReportMetric(res.CoupledDom0MAE, "coupled-dom0-mae")
}

// Demand predictors inside the elastic-scaling loop: sliding window vs
// FFT signatures on the bursty on/off workload.
func BenchmarkAblationPredictor(b *testing.B) {
	var results []exps.ScalingResult
	var err error
	cfg := exps.DefaultScalingConfig(13)
	cfg.Duration = 600
	for i := 0; i < b.N; i++ {
		results, err = exps.ScalingExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Policy {
		case exps.ScaleSlidingWindow:
			b.ReportMetric(100*r.ViolationRate, "sliding-viol%")
		case exps.ScaleSignature:
			b.ReportMetric(100*r.ViolationRate, "signature-viol%")
		}
	}
}

// evalModelError is the mean absolute Dom0-CPU error over samples.
func evalModelError(m *core.Model, samples []core.Sample) float64 {
	var sum float64
	for _, s := range samples {
		p := m.PredictSample(s)
		d := p.Dom0CPU - s.Dom0CPU
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(samples))
}

// ---- Core-operation micro-benchmarks ----

func BenchmarkEngineStep(b *testing.B) {
	cl := xen.NewCluster()
	pm := cl.AddPM("pm1")
	for i := 0; i < 4; i++ {
		vm := cl.AddVM(pm, string(rune('a'+i)), 512)
		vm.SetSource(workload.New(workload.CPU, 60, workload.Options{JitterRel: 0.01, Seed: int64(i)}))
	}
	e := xen.NewEngine(cl, xen.DefaultCalibration(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Advance(1)
	}
}

// A datacenter-scale fleet (10k PMs / 100k VMs, mixed flows) per step, at
// several shard counts. Noise is off: the pre-draw is inherently serial
// (one master RNG) and fleet-scale capacity studies run noiseless, so the
// benchmark isolates the parallel resolution path. Shard counts above the
// core count cannot speed up (workers time-slice one CPU — on a 1-core CI
// box all three variants tie); the ≥3x shards8-vs-shards1 target needs
// real cores, like BenchmarkLMSFitParallel. Steady state must stay at 0
// allocs/step at every shard count.
func BenchmarkEngineDatacenter(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			cl := xen.BuildDatacenter(xen.DatacenterSpec{
				PMs: 10000, VMsPerPM: 10, Seed: 1, FlowEvery: 8})
			calib := xen.DefaultCalibration()
			calib.ProcessNoiseRel = 0
			e := xen.NewEngineWithOptions(cl, calib, 1, xen.EngineOptions{Shards: shards})
			defer e.Close()
			e.Advance(2) // build the SoA layout, warm the columns
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Advance(1)
			}
		})
	}
}

// A paper-sized cluster (7 PMs x 4 guests, cross-PM traffic) per step.
func BenchmarkEngineBigCluster(b *testing.B) {
	cl := xen.NewCluster()
	for p := 0; p < 7; p++ {
		pm := cl.AddPM(string(rune('A' + p)))
		for v := 0; v < 4; v++ {
			name := string(rune('A'+p)) + string(rune('a'+v))
			vm := cl.AddVM(pm, name, 512)
			idx := p*4 + v
			d := xen.Demand{
				CPU:      float64(10 + (idx*17)%80),
				IOBlocks: float64((idx * 7) % 60),
				Flows:    []xen.Flow{{Kbps: float64((idx * 31) % 900)}},
			}
			vm.SetSource(workload.Const(d))
		}
	}
	e := xen.NewEngine(cl, xen.DefaultCalibration(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Advance(1)
	}
}

// benchCampaignCluster builds the paper-sized 7 PM x 4 guest cluster used
// by the campaign-step benchmarks.
func benchCampaignCluster() *xen.Engine {
	return benchCampaignClusterSharded(0)
}

// benchCampaignClusterSharded is benchCampaignCluster with an explicit
// engine shard count (0 = serial default).
func benchCampaignClusterSharded(shards int) *xen.Engine {
	cl := xen.NewCluster()
	for p := 0; p < 7; p++ {
		pm := cl.AddPM(string(rune('A' + p)))
		for v := 0; v < 4; v++ {
			name := string(rune('A'+p)) + string(rune('a'+v))
			vm := cl.AddVM(pm, name, 512)
			idx := p*4 + v
			d := xen.Demand{
				CPU:      float64(10 + (idx*17)%80),
				IOBlocks: float64((idx * 7) % 60),
				Flows:    []xen.Flow{{Kbps: float64((idx * 31) % 900)}},
			}
			vm.SetSource(workload.Const(d))
		}
	}
	return xen.NewEngineWithOptions(cl, xen.DefaultCalibration(), 1, xen.EngineOptions{Shards: shards})
}

// A paper-sized measurement campaign per step: the big cluster with the
// full 1 Hz sample pipeline (decimate -> meter -> streaming aggregation)
// attached to every PM, the setup behind every figure of the paper.
// allocs/op here is the cost of one *measured* simulated second in steady
// state — the batched pipeline holds it at zero. Trace writing is measured
// separately in BenchmarkCSVSink (float formatting dominates it), and the
// series-retaining variant in BenchmarkCampaignStepMetered.
func BenchmarkEngineCampaignStep(b *testing.B) {
	e := benchCampaignCluster()
	agg := monitor.NewStreamAggregator()
	script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: 7}
	detach, err := script.Attach(e, nil, agg)
	if err != nil {
		b.Fatal(err)
	}
	defer detach()
	e.Advance(10) // reach steady state: instruments, scratch, P2 estimators
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Advance(1)
	}
}

// The same campaign step terminating in a Collector, which retains every
// measurement (maps and rows per PM per step) — the memory-for-history
// trade the Collector documents. Kept separate so the steady-state number
// above stays a pure pipeline cost. Sharded variants run the meter's
// parallel kernels with shard-affine PM groups (output is byte-identical —
// make meter-determinism proves it); on a single-CPU box the workers
// time-slice one core, so shards8 tracking shards1 closely, not beating
// it, is the expected shape there.
func BenchmarkCampaignStepMetered(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			e := benchCampaignClusterSharded(shards)
			defer e.Close()
			col := monitor.NewCollector()
			script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: 7}
			detach, err := script.Attach(e, nil, col)
			if err != nil {
				b.Fatal(err)
			}
			defer detach()
			e.Advance(10) // settle instruments, scratch, sizing hints
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Advance(1)
			}
		})
	}
}

// Metering at datacenter scale: a 2000-PM fleet with the full sample
// pipeline terminating in the O(1)-memory StreamAggregator, at several
// shard counts. Engine emission and the meter's tool kernels both run on
// the shard workers (the PM groups a shard steps are the groups it
// meters), so this is the headline number for the sharded monitoring
// path; the unmetered fleet cost is BenchmarkEngineDatacenter.
func BenchmarkEngineDatacenterMetered(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			cl := xen.BuildDatacenter(xen.DatacenterSpec{
				PMs: 2000, VMsPerPM: 5, Seed: 1, FlowEvery: 8})
			calib := xen.DefaultCalibration()
			calib.ProcessNoiseRel = 0
			e := xen.NewEngineWithOptions(cl, calib, 1, xen.EngineOptions{Shards: shards})
			defer e.Close()
			agg := monitor.NewStreamAggregator()
			script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: 7}
			detach, err := script.Attach(e, nil, agg)
			if err != nil {
				b.Fatal(err)
			}
			defer detach()
			e.Advance(6) // SoA layout, instruments, P2 estimators (buffer 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Advance(1)
			}
		})
	}
}

// warmStartBuild deterministically constructs the warm-start benchmark's
// world: 4 PMs x 4 jittered guests (stateful sources, so their RNG streams
// travel with forks as Aux).
func warmStartBuild() (xen.ForkBuild, error) {
	cl := xen.NewCluster()
	b := xen.ForkBuild{Cluster: cl}
	kinds := []workload.Kind{workload.CPU, workload.IO, workload.BW, workload.CPU}
	pms := make([]*xen.PM, 4)
	for p := 0; p < 4; p++ {
		pm := cl.AddPM(string(rune('A' + p)))
		pms[p] = pm
		for v := 0; v < 4; v++ {
			idx := p*4 + v
			vm := cl.AddVM(pm, string(rune('A'+p))+string(rune('a'+v)), 512)
			levels := workload.Levels(kinds[v])
			src := workload.New(kinds[v], levels[idx%len(levels)],
				workload.Options{JitterRel: 0.05, Seed: int64(idx)})
			vm.SetSource(src)
			if f, ok := src.(xen.Forkable); ok {
				b.Aux = append(b.Aux, f)
			}
		}
	}
	b.Data = pms
	return b, nil
}

// A 16-cell campaign grid over one shared warmed prefix: every cell
// re-simulates the same 600-step settle phase and then measures 10 samples
// with its own script seed — the shape of every figure sweep in the paper.
// "scratch" warms each cell from step zero (the historical path); "fork"
// builds the prefix once per grid and stamps the 16 cells out of the
// captured state. Both emit byte-identical traces (make fork-determinism);
// the fork path's target is >= 1.5x the scratch grid.
func BenchmarkCampaignWarmStart(b *testing.B) {
	const warmup, cells, samples = 600, 16, 10
	calib := xen.DefaultCalibration()
	runCell := func(e *xen.Engine, pms []*xen.PM, cell int) {
		script := monitor.Script{IntervalSteps: 1, Samples: samples,
			Noise: monitor.DefaultNoise(), Seed: int64(1000 + cell)}
		if _, err := script.Run(e, pms); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for cell := 0; cell < cells; cell++ {
				bd, err := warmStartBuild()
				if err != nil {
					b.Fatal(err)
				}
				e := xen.NewEngine(bd.Cluster, calib, 7)
				e.Advance(warmup)
				runCell(e, bd.Data.([]*xen.PM), cell)
				e.Close()
			}
		}
	})
	b.Run("fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src, err := xen.NewForkSource(warmStartBuild, calib, 7, warmup)
			if err != nil {
				b.Fatal(err)
			}
			for cell := 0; cell < cells; cell++ {
				e, data, err := src.Fork()
				if err != nil {
					b.Fatal(err)
				}
				runCell(e, data.([]*xen.PM), cell)
				e.Close()
			}
		}
	})
}

// The Meter alone: one 4-guest PM group measured per iteration, delivered
// as the one-shard step a serial engine delivers.
func BenchmarkMeter(b *testing.B) {
	var count sampling.Counter
	m := monitor.NewMeter(monitor.DefaultNoise(), 7, sampling.NewSerial(count.Count))
	batch := make([]sampling.Sample, 0, 7)
	for v := 0; v < 4; v++ {
		batch = append(batch, sampling.Sample{Time: 1, PMID: 0, PM: "A", VMID: v,
			Domain: string(rune('a' + v)), Kind: sampling.KindGuest,
			Util: units.V(float64(10+v*17), 120, 8, 300)})
	}
	batch = append(batch,
		sampling.Sample{Time: 1, PMID: 0, PM: "A", VMID: -1, Domain: "Domain-0", Kind: sampling.KindDom0, Util: units.V(9, 300, 30, 900)},
		sampling.Sample{Time: 1, PMID: 0, PM: "A", VMID: -1, Domain: "hypervisor", Kind: sampling.KindHypervisor, Util: units.V(4, 0, 0, 0)},
		sampling.Sample{Time: 1, PMID: 0, PM: "A", VMID: -1, Domain: "host", Kind: sampling.KindHost, Util: units.V(80, 800, 60, 2100)},
	)
	benchStep(m, batch) // warm the per-PM instruments and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Time = float64(i + 2) // new step each iteration
		}
		benchStep(m, batch)
	}
}

// benchStep delivers batch to sink as one single-shard step.
func benchStep(sink sampling.Sink, batch []sampling.Sample) {
	sink.BeginStep(sampling.StepShape{Shards: 1, Time: batch[0].Time, MaxPMID: batch[0].PMID})
	sink.ConsumeShard(0, batch)
	sink.FinishStep()
}

// CSV trace writing: one 7-sample step per iteration through the
// append-based row encoder.
func BenchmarkCSVSink(b *testing.B) {
	sink := trace.NewCSVSink(io.Discard)
	batch := make([]sampling.Sample, 7)
	for i := range batch {
		batch[i] = sampling.Sample{Time: 1.5, PM: "pmA", Domain: "vm" + string(rune('a'+i)),
			Kind: sampling.KindGuest, Util: units.V(42.3735, 512.25, 17.5, 903.125)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStep(sink, batch)
	}
	if err := sink.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWaterFill(b *testing.B) {
	demands := []float64{10, 95, 40, 70, 100, 5, 60, 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xen.WaterFill(demands, 190)
	}
}

func BenchmarkOLSFit(b *testing.B) {
	single, _ := benchCorpus(b)
	xs := make([][]float64, len(single))
	ys := make([]float64, len(single))
	for i, s := range single {
		xs[i] = []float64{s.VMSum.CPU, s.VMSum.Mem, s.VMSum.IO, s.VMSum.BW}
		ys[i] = s.Dom0CPU
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.OLS(xs, ys, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapOLS is one target of the report's coefficient
// confidence table (core.CoefficientCIs): four features plus the
// intercept, B=100 at 90%, over the shared training corpus.
func BenchmarkBootstrapOLS(b *testing.B) {
	single, _ := benchCorpus(b)
	xs := make([][]float64, len(single))
	ys := make([]float64, len(single))
	for i, s := range single {
		xs[i] = []float64{s.VMSum.CPU, s.VMSum.Mem, s.VMSum.IO, s.VMSum.BW}
		ys[i] = s.Dom0CPU
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.BootstrapOLS(xs, ys, true, 100, 0.90, 99); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoefficientCIs is the report's coefficient confidence table:
// all five targets, B=100 at 90%, on the seed-1 report's corpus and seed.
func BenchmarkCoefficientCIs(b *testing.B) {
	single := benchPaperCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CoefficientCIs(single, 100, 0.90, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPeriod keeps BenchmarkDominantPeriod's result live.
var benchPeriod int

// BenchmarkDominantPeriod is one resource dimension of a
// SignaturePredictor prediction at full history: a 256-sample window of
// the scaling experiment's noisy 20%/80% on/off demand, period 60.
func BenchmarkDominantPeriod(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = 20 + r.NormFloat64()
		if i%60 < 30 {
			xs[i] += 60
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPeriod, _ = stats.DominantPeriod(xs)
	}
}

// BenchmarkTrain and BenchmarkCompareOnWindow are the two fitting stages
// of one BenchmarkServeRefit refit: the OLS challenger fit on a full
// 512-sample single-VM window, and the drift rule's bootstrap (default
// B=200) of that challenger against an incumbent on the same window.
func BenchmarkTrain(b *testing.B) {
	window := benchRefitSamples(512, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(window, nil, core.FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareOnWindow(b *testing.B) {
	window := benchRefitSamples(512, 1)
	incumbent, err := core.Train(benchRefitSamples(512, 2), nil, core.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	challenger, err := core.Train(window, nil, core.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompareOnWindow(incumbent, challenger, window, core.DriftOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLMSData slices a fixed-size LMS fitting problem out of the shared
// training corpus.
func benchLMSData(b *testing.B) ([][]float64, []float64) {
	b.Helper()
	single, _ := benchCorpus(b)
	xs := make([][]float64, 0, 400)
	ys := make([]float64, 0, 400)
	for i, s := range single {
		if i >= 400 {
			break
		}
		xs = append(xs, []float64{s.VMSum.CPU, s.VMSum.Mem, s.VMSum.IO, s.VMSum.BW})
		ys = append(ys, s.Dom0CPU)
	}
	return xs, ys
}

func BenchmarkLMSFit(b *testing.B) {
	xs, ys := benchLMSData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.LMS(xs, ys, true, stats.LMSOptions{Subsamples: 100, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// Scaling of the sharded LMS kernel; the fitted coefficients are
// bit-identical at every worker count, so this measures pure scheduling.
// Speedup over w1 needs real cores — on a single-CPU machine the extra
// worker counts only add goroutine overhead and the shared early-abandon
// incumbent is all that keeps the gap small.
func BenchmarkLMSFitParallel(b *testing.B) {
	xs, ys := benchLMSData(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			opt := stats.LMSOptions{Subsamples: 400, Seed: 3, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stats.LMS(xs, ys, true, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Order-statistic selection vs the copy+sort it replaced across the stats
// layer (medians in the LMS trial loop, percentiles, bootstrap CIs).
func BenchmarkSelectKth(b *testing.B) {
	const n = 10000
	src := make([]float64, n)
	for i := range src {
		src[i] = float64((i*2654435761)%n) + float64(i%7)/10
	}
	buf := make([]float64, n)
	b.Run("quickselect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			stats.SelectKth(buf, n/2)
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			sort.Float64s(buf)
			_ = buf[n/2]
		}
	})
}

func BenchmarkModelPredict(b *testing.B) {
	m := benchFittedModel(b)
	vms := []units.Vector{
		units.V(40, 128, 10, 300),
		units.V(25, 200, 20, 100),
		units.V(50, 60, 0, 0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(vms)
	}
}

func BenchmarkMeasurementScript(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := exps.RunMicro(exps.MicroScenario{
			N: 2, Kind: workload.BW, LevelIdx: 3, Samples: 10, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCDF(b *testing.B) {
	sample := make([]float64, 600)
	for i := range sample {
		sample[i] = float64(i%97) / 9.7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stats.NewCDF(sample)
		c.At(5)
		c.Quantile(0.9)
	}
}
