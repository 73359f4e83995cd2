// Package virtover is a library reproduction of "Profiling and
// Understanding Virtualization Overhead in Cloud" (Chen, Patel, Shen, Zhou
// — ICPP 2015): a measurement study of the resource-utilization overhead
// that Xen virtualization imposes on a physical machine, a regression model
// estimating that overhead from guest-VM utilizations, and an
// overhead-aware VM-placement policy built on the model.
//
// The package is organised in three layers, all driven through this facade:
//
//   - A calibrated behavioural simulator of the Xen stack (PMs, guests,
//     Dom0, hypervisor, credit scheduler, virtual disks, VIF/bridge/NIC
//     network path) standing in for the paper's XenServer testbed, plus
//     emulations of the xentop/top/mpstat/vmstat/ifconfig measurement
//     tools and the paper's synchronized measurement script.
//   - The virtualization-overhead estimation model (Eq. 1-3 of the paper):
//     per-resource linear models fitted by OLS or least-median-of-squares
//     regression, with a co-location term scaled by α(N) = N−1.
//   - The evaluation harness: micro-benchmark campaigns regenerating the
//     paper's Figures 2-5 and Tables I-III, trace-driven RUBiS prediction
//     experiments (Figures 7-9) and the CloudScale-style VOA-vs-VOU
//     placement experiment (Figure 10).
//
// Quick start:
//
//	model, err := virtover.FitModel(42, 120, virtover.FitOptions{})
//	if err != nil { ... }
//	pred := model.Predict([]virtover.Vector{{CPU: 50, Mem: 256, IO: 20, BW: 400}})
//	fmt.Println(pred.PM) // estimated PM utilization incl. Dom0 + hypervisor
//
// # Contexts and compatibility
//
// Every expensive entry point comes in two forms: a context-aware variant
// (FitModelContext, RunMicroContext, FullReportContext,
// Scenario.RunContext) whose first parameter is a context.Context, and the
// original context-less form, which is a thin wrapper running the same
// code under context.Background(). The context-less signatures are the
// compatibility contract: they keep compiling and behaving identically
// across releases, so existing callers never change. Cancellation is
// checked before every simulated engine step — canceling a context aborts
// the run within one step and the returned error satisfies
// errors.Is(err, ErrCanceled) (or context.DeadlineExceeded for expired
// deadlines). Failures are classified by the sentinel errors below
// (ErrBadScenario, ErrBadOptions, ErrQueueFull) and are always wrapped, so
// errors.Is is the supported test.
//
// See examples/ for runnable programs and DESIGN.md for the experiment
// index; DESIGN.md §11 covers the HTTP estimation service (cmd/servd)
// built on the context-aware API.
package virtover

import (
	"context"
	"io"

	"virtover/internal/cloudscale"
	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/monitor"
	"virtover/internal/rubis"
	"virtover/internal/sampling"
	"virtover/internal/scenario"
	"virtover/internal/serve"
	"virtover/internal/stats"
	"virtover/internal/units"
	"virtover/internal/workload"
	"virtover/internal/xen"
)

// ---- Sentinel errors ----
//
// Error classification across the library and the estimation service.
// Every failure path wraps one of these with %w, so errors.Is is the
// supported way to dispatch on failure kind regardless of the message.

// ErrCanceled reports a run aborted by context cancellation. It is
// context.Canceled, re-exported so callers of the facade need not import
// context for the comparison. Deadline expiry yields
// context.DeadlineExceeded instead.
var ErrCanceled = context.Canceled

// ErrBadScenario reports a malformed scenario document (unknown fields,
// unsupported version, or structural inconsistencies). The message names
// the offending field by path, e.g. `vms[2].workload.kind: unknown kind
// "cpuu"`.
var ErrBadScenario = scenario.ErrBadScenario

// ErrBadOptions reports invalid FitOptions (unknown method, negative
// ridge, ridge with LMS, negative worker counts).
var ErrBadOptions = core.ErrBadOptions

// ErrQueueFull reports that the estimation service's bounded task queue
// had no room for a request (HTTP 429 on the wire).
var ErrQueueFull = serve.ErrQueueFull

// ---- Resource vectors ----

// Vector is a four-dimensional resource utilization sample: CPU in %VCPU,
// memory in MB, disk I/O in blocks/s, network bandwidth in Kb/s.
type Vector = units.Vector

// Resource identifies one of the four measured resource dimensions.
type Resource = units.Resource

// Resource dimensions in the coefficient order of the paper's Eq. (1).
const (
	CPU = units.CPU
	Mem = units.Mem
	IO  = units.IO
	BW  = units.BW
)

// V constructs a Vector.
func V(cpu, mem, io, bw float64) Vector { return units.V(cpu, mem, io, bw) }

// ---- Simulated Xen stack ----

// Cluster is a set of simulated physical machines sharing a network.
type Cluster = xen.Cluster

// PM is a simulated physical machine with a driver domain and hypervisor.
type PM = xen.PM

// VM is a simulated guest virtual machine.
type VM = xen.VM

// Engine advances a cluster through time under a Calibration's cost model.
type Engine = xen.Engine

// Calibration collects the behavioural constants of the simulated stack;
// every constant cites the figure of the paper it reproduces.
type Calibration = xen.Calibration

// Snapshot is a ground-truth reading of one PM and its domains.
type Snapshot = xen.Snapshot

// Demand is a guest workload's per-step resource request.
type Demand = xen.Demand

// Flow is one outbound network stream of a guest.
type Flow = xen.Flow

// WorkloadSource produces the demand of a VM's workload over time.
type WorkloadSource = xen.Source

// NewCluster creates an empty cluster.
func NewCluster() *Cluster { return xen.NewCluster() }

// EngineOptions configures engine construction (shard count of the
// stepping pool; output is bit-identical at every value).
type EngineOptions = xen.EngineOptions

// NewEngine creates a simulation engine with 1-second steps. Its shard
// count is the process default (see SetEngineShards).
func NewEngine(c *Cluster, calib Calibration, seed int64) *Engine {
	return xen.NewEngine(c, calib, seed)
}

// NewEngineWithOptions creates a simulation engine with explicit options.
func NewEngineWithOptions(c *Cluster, calib Calibration, seed int64, opts EngineOptions) *Engine {
	return xen.NewEngineWithOptions(c, calib, seed, opts)
}

// SetEngineShards sets the process-wide default shard count applied to
// engines created afterwards (the cmd/ `-shards` flag). Sharding splits
// one cluster's PMs across a persistent worker pool; traces stay
// byte-identical at any value, so it is purely a throughput knob for
// datacenter-scale fleets. Values below 1 restore the serial default.
func SetEngineShards(n int) { xen.SetDefaultShards(n) }

// BuildDatacenter generates a synthetic datacenter-scale cluster for
// capacity studies and benchmarks.
func BuildDatacenter(spec DatacenterSpec) *Cluster { return xen.BuildDatacenter(spec) }

// DatacenterSpec shapes a synthetic fleet for BuildDatacenter.
type DatacenterSpec = xen.DatacenterSpec

// EngineState is a serializable snapshot of an engine's dynamic state;
// see (*Engine).CaptureState and RestoreState.
type EngineState = xen.EngineState

// DefaultCalibration returns the constants calibrated against the paper's
// XenServer 6.2 testbed.
func DefaultCalibration() Calibration { return xen.DefaultCalibration() }

// ---- Warm-start forking ----
//
// Campaign grids re-simulate the same warmed prefix (topology + workloads
// + settle phase) for every cell. A ForkSource builds that prefix once and
// stamps out per-cell engines whose traces are byte-identical to
// from-scratch runs; a ForkCache content-addresses warmed prefixes so
// repeated campaigns re-settle nothing. See DESIGN.md §14.

// Forkable is implemented by stateful workload sources whose state lives
// outside the engine and must travel with a fork (RUBiS apps, jittered
// generators).
type Forkable = xen.Forkable

// ForkBuild is one deterministic construction of a campaign's world.
type ForkBuild = xen.ForkBuild

// ForkSource is a warmed campaign prefix ready to fork per-cell engines;
// it is immutable and safe for concurrent Fork calls.
type ForkSource = xen.ForkSource

// ForkCache is a bounded content-addressed LRU of warmed prefixes with
// singleflight build collapsing.
type ForkCache = xen.ForkCache

// NewForkSource constructs the world once, warms it for warmup steps, and
// captures the state every Fork restores.
func NewForkSource(build func() (ForkBuild, error), calib Calibration, seed int64, warmup int) (*ForkSource, error) {
	return xen.NewForkSource(build, calib, seed, warmup)
}

// NewForkCache creates a prefix cache bounded to max entries (<= 0 selects
// 32).
func NewForkCache(max int) *ForkCache { return xen.NewForkCache(max) }

// ---- Workloads (Table II) ----

// WorkloadKind identifies one of the paper's micro-benchmark families.
type WorkloadKind = workload.Kind

// The four Table II workload families.
const (
	WorkloadCPU = workload.CPU
	WorkloadMEM = workload.MEM
	WorkloadIO  = workload.IO
	WorkloadBW  = workload.BW
)

// WorkloadOptions tunes generator realism.
type WorkloadOptions = workload.Options

// NewWorkload creates a lookbusy/ping-style generator at the given
// intensity (Table II native units).
func NewWorkload(kind WorkloadKind, level float64, opt WorkloadOptions) WorkloadSource {
	return workload.New(kind, level, opt)
}

// WorkloadLevels returns the five Table II intensity levels of a family.
func WorkloadLevels(kind WorkloadKind) []float64 { return workload.Levels(kind) }

// CombineWorkloads merges several sources into one mixed VM workload.
func CombineWorkloads(sources ...WorkloadSource) WorkloadSource {
	return workload.Combine(sources...)
}

// ReplayWorkload plays back a recorded per-second demand sequence.
func ReplayWorkload(demands []Demand, loop bool) WorkloadSource {
	return workload.Replay(demands, loop)
}

// WorkloadPhase is one segment of a piecewise-constant workload.
type WorkloadPhase = workload.Phase

// StepsWorkload builds a piecewise-constant source from phases.
func StepsWorkload(phases []WorkloadPhase) WorkloadSource { return workload.Steps(phases) }

// ---- Measurement (Table I, Section III-A) ----

// Measurement is one synchronized multi-tool reading of a PM.
type Measurement = monitor.Measurement

// MeasurementScript orchestrates the emulated tools at a fixed interval.
type MeasurementScript = monitor.Script

// NoiseProfile holds per-tool measurement-noise levels.
type NoiseProfile = monitor.NoiseProfile

// DefaultScript mirrors the paper's 1 Hz x 120 s measurement campaign.
func DefaultScript(seed int64) MeasurementScript { return monitor.DefaultScript(seed) }

// AverageMeasurements collapses a per-sample series (as returned by
// MeasurementScript.Run) into one mean Measurement per PM, which is what
// the paper reports per experiment.
func AverageMeasurements(series [][]Measurement) []Measurement { return monitor.Average(series) }

// ---- Overhead estimation model (Section V) ----

// Model is the fitted virtualization-overhead estimation model (Eq. 1-3).
type Model = core.Model

// ModelSample is one training or evaluation observation.
type ModelSample = core.Sample

// FitOptions configures model training. Its Workers field (and
// LMSOptions.Workers) parallelizes the LMS fitting kernel; the fitted
// coefficients are bit-for-bit identical at every worker count.
type FitOptions = core.FitOptions

// LMSOptions configures the least-median-of-squares search used when
// FitOptions.Method is MethodLMS.
type LMSOptions = stats.LMSOptions

// Prediction is the model output for one PM.
type Prediction = core.Prediction

// Regression estimators for model fitting. MethodLMS is the paper's
// least-median-of-squares choice; MethodOLS is the classical baseline.
const (
	MethodOLS = core.MethodOLS
	MethodLMS = core.MethodLMS
)

// Train fits the model from single-VM and multi-VM samples (Eq. 2 and 3).
func Train(single, multi []ModelSample, opt FitOptions) (*Model, error) {
	return core.Train(single, multi, opt)
}

// FitModel runs the full micro-benchmark study on the simulator and fits
// the model from its measurements, the paper's end-to-end training
// pipeline. samplesPerRun <= 0 selects a fast default.
func FitModel(seed int64, samplesPerRun int, opt FitOptions) (*Model, error) {
	return exps.FitModel(seed, samplesPerRun, opt)
}

// FitModelContext is FitModel with cancellation: the training campaigns
// stop dispatching and the running engine aborts within one simulated step
// of ctx ending; the error then satisfies errors.Is(err, ErrCanceled) (or
// context.DeadlineExceeded). Fits are deterministic — a completed
// FitModelContext returns coefficients bit-identical to FitModel's.
func FitModelContext(ctx context.Context, seed int64, samplesPerRun int, opt FitOptions) (*Model, error) {
	return exps.FitModelContext(ctx, seed, samplesPerRun, opt)
}

// MicroScenario describes one micro-benchmark campaign (N identical VMs on
// one PM at a Table II workload level).
type MicroScenario = exps.MicroScenario

// RunMicro executes a micro-benchmark campaign, returning the run-averaged
// measurement and the raw per-sample series.
func RunMicro(sc MicroScenario) (Measurement, [][]Measurement, error) {
	return exps.RunMicro(sc)
}

// RunMicroContext is RunMicro with cancellation (same contract as
// FitModelContext: abort within one engine step, ErrCanceled via
// errors.Is).
func RunMicroContext(ctx context.Context, sc MicroScenario) (Measurement, [][]Measurement, error) {
	return exps.RunMicroContext(ctx, sc)
}

// SamplesFromSeries converts a measurement series into model samples.
func SamplesFromSeries(series [][]Measurement) []ModelSample {
	return core.SamplesFromSeries(series)
}

// DriftOptions configures CompareOnWindow's bootstrap drift rule.
type DriftOptions = core.DriftOptions

// DriftReport is CompareOnWindow's verdict: the paired residual advantage
// of the challenger over the incumbent, its bootstrap confidence
// interval, and whether the advantage is significant.
type DriftReport = core.DriftReport

// CompareOnWindow decides whether a freshly-fitted challenger model beats
// the incumbent on a shared sample window: it pairs the two models'
// absolute residuals per sample and bootstraps a confidence interval over
// the mean advantage. Significant means the interval's lower bound is
// above zero — the challenger is better beyond resampling noise. This is
// the drift rule behind the estimation service's per-tenant hot model
// swaps (DESIGN.md §16).
func CompareOnWindow(incumbent, challenger *Model, samples []ModelSample, opt DriftOptions) (*DriftReport, error) {
	return core.CompareOnWindow(incumbent, challenger, samples, opt)
}

// ---- Heterogeneous-configuration extension (the paper's future work) ----

// ConfigModel is the configuration-aware overhead model: the Eq. 1-3
// feature vector extended with VCPU-configuration features, implementing
// the extension the paper leaves as future work (Section VII).
type ConfigModel = core.ConfigModel

// ConfigSample is a model observation carrying VM-configuration data.
type ConfigSample = core.ConfigSample

// GuestConfig describes one guest (utilization + VCPUs) for
// configuration-aware prediction.
type GuestConfig = core.GuestConfig

// TrainConfig fits the configuration-aware model.
func TrainConfig(single, multi []ConfigSample, opt FitOptions) (*ConfigModel, error) {
	return core.TrainConfig(single, multi, opt)
}

// HeteroScenario is one heterogeneous measurement campaign.
type HeteroScenario = exps.HeteroScenario

// HeteroComparison is the base-vs-config-model accuracy comparison.
type HeteroComparison = exps.HeteroComparison

// RunHetero executes a heterogeneous campaign.
func RunHetero(sc HeteroScenario) ([]ConfigSample, error) { return exps.RunHetero(sc) }

// HeteroExperiment trains the base and configuration-aware models on a
// diverse-configuration corpus and compares them on held-out deployments.
func HeteroExperiment(seed int64, samplesPerRun int, opt FitOptions) (HeteroComparison, error) {
	return exps.HeteroExperiment(seed, samplesPerRun, opt)
}

// ---- Robustness and workload-isolation studies ----

// RobustnessResult compares OLS- and LMS-fitted models under glitch-prone
// measurement tools.
type RobustnessResult = exps.RobustnessResult

// RobustnessExperiment quantifies why the paper fits with least median of
// squares: tool glitches wreck OLS but not LMS.
func RobustnessExperiment(seed int64, samplesPerRun int, glitchProb float64) (RobustnessResult, error) {
	return exps.RobustnessExperiment(seed, samplesPerRun, glitchProb)
}

// IsolationResult compares isolated-workload training (Table II ladders)
// against coupled-tool training (httperf/iperf/Fibonacci).
type IsolationResult = exps.IsolationResult

// IsolationExperiment quantifies the paper's Section III-B argument for
// single-resource-intensive benchmarks.
func IsolationExperiment(seed int64, samplesPerRun int, opt FitOptions) (IsolationResult, error) {
	return exps.IsolationExperiment(seed, samplesPerRun, opt)
}

// TraceErrors holds per-sample offline prediction errors for one PM.
type TraceErrors = exps.TraceErrors

// EvaluateSeries applies a model offline to a recorded measurement series.
func EvaluateSeries(m *Model, series [][]Measurement) (map[string]*TraceErrors, error) {
	return exps.EvaluateSeries(m, series)
}

// RecordRUBiSTrace records the Figure 6 deployment as a measurement
// series for offline replay.
func RecordRUBiSTrace(sets, clientCount, duration int, seed int64) ([][]Measurement, error) {
	return exps.RecordRUBiSTrace(sets, clientCount, duration, seed)
}

// ---- Experiments (Figures 2-10, Tables I-III) ----

// Figure is a reproduced paper figure with plottable series.
type Figure = exps.Figure

// Series is one plotted curve of a Figure.
type Series = exps.Series

// MicroFigure regenerates Figures 2 (n=1), 3 (n=2) or 4 (n=4).
func MicroFigure(n int, seed int64, samples int) ([]Figure, error) {
	return exps.MicroFigure(n, seed, samples)
}

// Figure5 regenerates the intra-PM bandwidth experiment.
func Figure5(seed int64, samples int) ([]Figure, error) { return exps.Figure5(seed, samples) }

// PredictionResult holds per-sample prediction errors of one trace-driven
// run (Figures 7-9).
type PredictionResult = exps.PredictionResult

// PredictionExperiment runs the Section VI-A trace-driven evaluation with
// `sets` RUBiS applications (1, 2, 3 for Figures 7, 8, 9).
func PredictionExperiment(m *Model, sets int, clients []int, duration int, seed int64) ([]PredictionResult, error) {
	return exps.PredictionExperiment(m, sets, clients, duration, seed)
}

// PredictionOptions parameterizes PredictionExperimentOpts, including the
// settle phase (WarmupSteps: 0 selects DefaultWarmupSteps, negative
// disables it).
type PredictionOptions = exps.PredictionOptions

// DefaultWarmupSteps is the historical settle phase of the prediction
// experiments.
const DefaultWarmupSteps = exps.DefaultWarmupSteps

// PredictionExperimentOpts is PredictionExperiment with cancellation and
// explicit options. Each client-count cell forks from a cached warmed
// prefix; traces are byte-identical to from-scratch runs.
func PredictionExperimentOpts(ctx context.Context, m *Model, opt PredictionOptions) ([]PredictionResult, error) {
	return exps.PredictionExperimentOpts(ctx, m, opt)
}

// PredictionFigures renders prediction results as the four CDF panels of a
// figure.
func PredictionFigures(figID string, results []PredictionResult, gridMax float64, gridPoints int) []Figure {
	return exps.PredictionFigures(figID, results, gridMax, gridPoints)
}

// PlacementConfig parameterizes the Figure 10 experiment.
type PlacementConfig = exps.PlacementConfig

// ScenarioResult holds one (scenario, policy) cell of Figure 10.
type ScenarioResult = exps.ScenarioResult

// DefaultPlacementConfig mirrors the paper's Section VI-B setup.
func DefaultPlacementConfig(seed int64) PlacementConfig { return exps.DefaultPlacementConfig(seed) }

// PlacementExperiment runs the VOA-vs-VOU provisioning experiment.
func PlacementExperiment(m *Model, cfg PlacementConfig) ([]ScenarioResult, error) {
	return exps.PlacementExperiment(m, cfg)
}

// Figure10 renders placement results as the paper's two panels.
func Figure10(results []ScenarioResult) []Figure { return exps.Figure10(results) }

// RenderTableI prints the measurement-tool capability matrix.
func RenderTableI() string { return exps.RenderTableI() }

// RenderTableII prints the benchmark intensity ladders.
func RenderTableII() string { return exps.RenderTableII() }

// RenderTableIII prints the overhead-definition matrix.
func RenderTableIII() string { return exps.RenderTableIII() }

// ---- RUBiS workload (Section VI) ----

// RubisConfig wires one simulated RUBiS application.
type RubisConfig = rubis.Config

// RubisProfile is the per-request cost profile of the two tiers.
type RubisProfile = rubis.Profile

// RubisApp is a running RUBiS instance.
type RubisApp = rubis.App

// RubisStats summarizes a RUBiS run.
type RubisStats = rubis.Stats

// NewRubis creates a RUBiS application instance.
func NewRubis(cfg RubisConfig) *RubisApp { return rubis.New(cfg) }

// DefaultRubisProfile is the browsing mix of the prediction experiments.
func DefaultRubisProfile() RubisProfile { return rubis.DefaultProfile() }

// HeavyRubisProfile is the bidding mix of the placement experiment.
func HeavyRubisProfile() RubisProfile { return rubis.HeavyProfile() }

// ConstClients returns a fixed client population function.
func ConstClients(n float64) func(float64) float64 { return rubis.ConstClients(n) }

// RampClients linearly ramps the client population (the paper's 300->700
// ten-minute ramp).
func RampClients(lo, hi, duration float64) func(float64) float64 {
	return rubis.RampClients(lo, hi, duration)
}

// ---- Placement (Section VI-B) ----

// PlacementPolicy selects overhead-aware (VOA) or overhead-unaware (VOU)
// admission.
type PlacementPolicy = cloudscale.Policy

// Placement policies.
const (
	VOU = cloudscale.VOU
	VOA = cloudscale.VOA
)

// Placer performs CloudScale-style sequential VM placement.
type Placer = cloudscale.Placer

// DemandPredictor performs CloudScale-style online demand prediction.
type DemandPredictor = cloudscale.Predictor

// NewDemandPredictor returns a predictor with CloudScale-like defaults.
func NewDemandPredictor() *DemandPredictor { return cloudscale.NewPredictor() }

// HotspotController watches measurements and recommends Sandpiper-style
// migrations off overloaded PMs, with overhead-aware (VOA) or naive (VOU)
// load estimation.
type HotspotController = cloudscale.HotspotController

// HotspotConfig tunes the hotspot controller.
type HotspotConfig = cloudscale.HotspotConfig

// Migration is one recommended VM move.
type Migration = cloudscale.Migration

// NewHotspotController creates a hotspot controller.
func NewHotspotController(cfg HotspotConfig) (*HotspotController, error) {
	return cloudscale.NewHotspotController(cfg)
}

// DefaultHotspotConfig returns Sandpiper-like controller settings.
func DefaultHotspotConfig(p Placer) HotspotConfig { return cloudscale.DefaultHotspotConfig(p) }

// AdmissionController performs per-PM admission checks — the paper's
// "avoid mistakenly adopting new VMs" use case.
type AdmissionController = cloudscale.AdmissionController

// AdmissionDecision is an admission verdict with the estimated
// post-admission utilization and headroom.
type AdmissionDecision = cloudscale.AdmissionDecision

// NewAdmissionController returns an admission controller with a relative
// safety reserve.
func NewAdmissionController(p Placer, reserve float64) (*AdmissionController, error) {
	return cloudscale.NewAdmissionController(p, reserve)
}

// AdmissionConfig tunes the arrival-stream admission experiment.
type AdmissionConfig = exps.AdmissionConfig

// AdmissionResult summarizes one policy's admission run.
type AdmissionResult = exps.AdmissionResult

// AdmissionExperiment streams VM requests at a PM under VOA and VOU
// admission and measures host overload.
func AdmissionExperiment(m *Model, cfg AdmissionConfig) ([]AdmissionResult, error) {
	return exps.AdmissionExperiment(m, cfg)
}

// MitigationConfig tunes the hotspot-mitigation experiment.
type MitigationConfig = exps.MitigationConfig

// MitigationResult reports the hotspot-mitigation experiment.
type MitigationResult = exps.MitigationResult

// MitigationExperiment overloads a PM hosting a RUBiS web tier and
// measures whether the controller's migrations restore throughput.
func MitigationExperiment(m *Model, cfg MitigationConfig) (MitigationResult, error) {
	return exps.MitigationExperiment(m, cfg)
}

// ---- Elastic scaling (CloudScale's core mechanism, reference [8]) ----

// Forecaster predicts next-interval VM demand; DemandPredictor and
// SignaturePredictor implement it.
type Forecaster = cloudscale.Forecaster

// SignaturePredictor is the FFT-signature demand predictor: it recognizes
// repeating demand patterns and anticipates swings instead of chasing
// them.
type SignaturePredictor = cloudscale.SignaturePredictor

// NewSignaturePredictor returns a signature predictor with CloudScale-like
// defaults.
func NewSignaturePredictor() *SignaturePredictor { return cloudscale.NewSignaturePredictor() }

// Scaler runs the per-VM elastic-scaling loop: predict demand, set the
// credit-scheduler CPU cap with padding, react to cap hits.
type Scaler = cloudscale.Scaler

// ScalerConfig tunes the scaling loop.
type ScalerConfig = cloudscale.ScalerConfig

// NewScaler validates the config and returns a scaler.
func NewScaler(cfg ScalerConfig) (*Scaler, error) { return cloudscale.NewScaler(cfg) }

// DefaultScalerConfig returns CloudScale-like scaler settings.
func DefaultScalerConfig(f Forecaster) ScalerConfig { return cloudscale.DefaultScalerConfig(f) }

// ScalingConfig tunes the elastic-scaling experiment.
type ScalingConfig = exps.ScalingConfig

// ScalingResult summarizes one scaling policy's run.
type ScalingResult = exps.ScalingResult

// DefaultScalingConfig is the bursty on/off workload of the scaling
// experiment.
func DefaultScalingConfig(seed int64) ScalingConfig { return exps.DefaultScalingConfig(seed) }

// ScalingExperiment compares static provisioning against sliding-window
// and FFT-signature elastic scaling on a periodic workload.
func ScalingExperiment(cfg ScalingConfig) ([]ScalingResult, error) {
	return exps.ScalingExperiment(cfg)
}

// RenderScaling prints a scaling-experiment comparison table.
func RenderScaling(results []ScalingResult) string { return exps.RenderScaling(results) }

// ---- Full report ----

// ReportConfig scales the full-reproduction report.
type ReportConfig = exps.ReportConfig

// QuickReportConfig finishes in seconds.
func QuickReportConfig(seed int64) ReportConfig { return exps.QuickReportConfig(seed) }

// PaperReportConfig mirrors the paper's experiment sizes.
func PaperReportConfig(seed int64) ReportConfig { return exps.PaperReportConfig(seed) }

// FullReport runs the complete reproduction and renders a markdown report.
func FullReport(cfg ReportConfig) (string, error) { return exps.FullReport(cfg) }

// FullReportContext is FullReport with cancellation. The heavyweight
// sections (figures, model fits, prediction and placement experiments)
// abort within one engine step of ctx ending; the lighter extension
// sections finish their current section and stop at the next boundary.
func FullReportContext(ctx context.Context, cfg ReportConfig) (string, error) {
	return exps.FullReportContext(ctx, cfg)
}

// ---- Model persistence ----

// SaveModel writes a fitted model as JSON.
func SaveModel(w io.Writer, m *Model) error { return core.SaveModel(w, m) }

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// ---- Scenarios ----

// Scenario is a declarative simulation setup loaded from JSON.
type Scenario = scenario.Scenario

// ParseScenario decodes and validates a scenario file.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// ---- Sample pipeline ----
//
// The engine emits one ground-truth Sample per domain per step into
// attached Sinks (Engine.AttachSink). MeasurementScript.Attach inserts the
// decimate -> filter -> meter stages so downstream sinks see *measured*
// samples at the script's interval. Every Sink takes the stream one step
// at a time — BeginStep, one ConsumeShard per engine shard (concurrently
// on a sharded engine), then FinishStep, the ordered merge — and strictly
// serial consumers attach through NewSerialSink. See DESIGN.md §13 for
// the contract and §9 for a custom-sink walkthrough.

// Sample is one per-domain utilization reading flowing through the
// pipeline.
type Sample = sampling.Sample

// Sink consumes the sample stream one step at a time; implement it (or
// wrap a function with NewSerialSink) to observe a simulation online.
type Sink = sampling.Sink

// StepShape describes one step delivery to a Sink.
type StepShape = sampling.StepShape

// NewSerialSink wraps fn as a Sink, the one adapter for strictly serial
// consumers: at the end of every step fn receives the step's samples in
// emission order, on the stepping goroutine.
func NewSerialSink(fn func([]Sample)) Sink { return sampling.NewSerial(fn) }

// Fanout delivers the stream to several sinks, in attach order.
type Fanout = sampling.Fanout

// SampleKind distinguishes guest, Domain-0, hypervisor and host samples.
type SampleKind = sampling.Kind

// Sample kinds in engine emission order.
const (
	KindGuest      = sampling.KindGuest
	KindDom0       = sampling.KindDom0
	KindHypervisor = sampling.KindHypervisor
	KindHost       = sampling.KindHost
)

// SampleFilter forwards only samples matching Keep; attach it as a
// pointer.
type SampleFilter = sampling.Filter

// Decimate forwards every n-th simulation step to next.
func Decimate(n int, next Sink) Sink { return sampling.Decimate(n, next) }

// MetricSummary is an online summary (mean/std/min/max/p50/p90/p99) of one
// sample stream.
type MetricSummary = sampling.Summary

// StatSink folds selected samples into an O(1)-memory MetricSummary.
type StatSink = sampling.StatSink

// NewStatSink creates a StatSink over the given selector.
func NewStatSink(sel func(Sample) (float64, bool)) *StatSink { return sampling.NewStatSink(sel) }

// SelectKind selects one resource of samples of one kind.
func SelectKind(k SampleKind, r Resource) func(Sample) (float64, bool) {
	return sampling.SelectKind(k, r)
}

// SampleCollector assembles measured samples back into Measurement rows.
type SampleCollector = monitor.Collector

// NewSampleCollector creates an empty collector; attach it behind
// MeasurementScript.Attach and read Series or Latest between Advance
// calls.
func NewSampleCollector() *SampleCollector { return monitor.NewCollector() }

// PushSamples replays a recorded measurement series through a sink.
func PushSamples(series [][]Measurement, sink Sink) { monitor.PushSeries(series, sink) }

// ---- Streaming aggregation ----

// StreamAggregator folds an unbounded measurement stream into O(1)-memory
// per-PM summaries (Welford moments + P² percentiles).
type StreamAggregator = monitor.StreamAggregator

// NewStreamAggregator creates an empty aggregator.
func NewStreamAggregator() *StreamAggregator { return monitor.NewStreamAggregator() }

// ---- Statistics ----

// CDF is an empirical cumulative distribution function.
type CDF = stats.CDF

// NewCDF builds an empirical CDF from a sample.
func NewCDF(sample []float64) *CDF { return stats.NewCDF(sample) }

// Percentile returns the p-th percentile (0..100) of xs.
func Percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }
