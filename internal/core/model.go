// Package core implements the paper's primary contribution (Section V):
// the virtualization-overhead estimation model that maps guest-VM resource
// utilizations to the resource utilizations of Dom0, the hypervisor and the
// hosting PM.
//
// For a single VM (Eq. 1-2), each target quantity is a linear combination
// of the VM's four utilization metrics plus a constant:
//
//	M̂ = a·[1, Mc, Mm, Mi, Mn]^T
//
// with one coefficient row per target. For N co-located VMs (Eq. 3) the
// model adds a co-location overhead term scaled by α(N):
//
//	M̂ = a(ΣM) + α(N)·o(ΣM),   α(1)=0, α(2)=1, α(N)=N−1 (linear in N)
//
// The paper predicts PM CPU indirectly: it predicts Dom0 CPU and hypervisor
// CPU from the VM metrics and adds the (known) guest CPU sum; PM memory, IO
// and bandwidth are predicted directly. The model is fitted by regression —
// the paper cites Rousseeuw's least median of squares [24]; both LMS and
// OLS are available.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"virtover/internal/monitor"
	"virtover/internal/stats"
	"virtover/internal/units"
)

// Target enumerates the quantities the model predicts.
type Target int

// Model targets: the two CPU overhead components plus the directly
// predicted PM resources.
const (
	TargetDom0CPU Target = iota
	TargetHypCPU
	TargetPMMem
	TargetPMIO
	TargetPMBW
	numTargets
)

// NumTargets is the number of model targets.
const NumTargets = int(numTargets)

// Targets lists all targets in canonical order.
func Targets() []Target {
	return []Target{TargetDom0CPU, TargetHypCPU, TargetPMMem, TargetPMIO, TargetPMBW}
}

// String names the target.
func (t Target) String() string {
	switch t {
	case TargetDom0CPU:
		return "dom0-cpu"
	case TargetHypCPU:
		return "hypervisor-cpu"
	case TargetPMMem:
		return "pm-mem"
	case TargetPMIO:
		return "pm-io"
	case TargetPMBW:
		return "pm-bw"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// Row is one coefficient set a_r = [a_o, a_c, a_m, a_i, a_n]: intercept
// then the CPU, memory, IO and bandwidth coefficients (Eq. 1).
type Row [5]float64

// Apply evaluates the row at a VM utilization vector.
func (r Row) Apply(v units.Vector) float64 {
	return r[0] + r[1]*v.CPU + r[2]*v.Mem + r[3]*v.IO + r[4]*v.BW
}

// Sample is one training observation: the summed guest utilizations on a
// PM, how many VMs produced them, and the measured overhead targets.
type Sample struct {
	// N is the number of co-located VMs.
	N int
	// VMSum is the componentwise sum of the guests' utilizations
	// (for N=1 this is the single VM's utilization M of Eq. 1).
	VMSum units.Vector
	// Dom0CPU and HypCPU are the measured overhead CPU components.
	Dom0CPU, HypCPU float64
	// PM is the measured host utilization (Mem, IO, BW are model targets;
	// CPU is kept for reference and accuracy accounting).
	PM units.Vector
}

// SampleFromMeasurement converts one monitor reading into a training/
// evaluation sample.
func SampleFromMeasurement(m monitor.Measurement) Sample {
	return Sample{
		N:       len(m.VMs),
		VMSum:   m.GuestSum(),
		Dom0CPU: m.Dom0.CPU,
		HypCPU:  m.HypervisorCPU,
		PM:      m.Host,
	}
}

// SamplesFromSeries flattens a measurement series (all PMs, all sample
// times) into model samples.
func SamplesFromSeries(series [][]monitor.Measurement) []Sample {
	var out []Sample
	for _, row := range series {
		for _, m := range row {
			out = append(out, SampleFromMeasurement(m))
		}
	}
	return out
}

func (s Sample) target(t Target) float64 {
	switch t {
	case TargetDom0CPU:
		return s.Dom0CPU
	case TargetHypCPU:
		return s.HypCPU
	case TargetPMMem:
		return s.PM.Mem
	case TargetPMIO:
		return s.PM.IO
	case TargetPMBW:
		return s.PM.BW
	default:
		panic(fmt.Sprintf("core: invalid target %d", int(t)))
	}
}

// Method selects the regression estimator.
type Method int

// Fitting methods. MethodLMS is the paper's choice [24]; MethodOLS is the
// classical baseline used in the ablation benchmarks.
const (
	MethodOLS Method = iota
	MethodLMS
)

// FitOptions configures training.
type FitOptions struct {
	// Method selects OLS or LMS. Default (zero value) is OLS.
	Method Method
	// LMS configures the least-median-of-squares search when Method is
	// MethodLMS.
	LMS stats.LMSOptions
	// Ridge, when positive, adds an L2 penalty to the regression (applies
	// to MethodOLS only). Useful when the training campaigns leave feature
	// columns nearly collinear — notably the co-location residual fits of
	// Eq. 3, where unregularized coefficients can cancel wildly and
	// extrapolate badly.
	Ridge float64
	// Workers caps the goroutines the LMS fitting kernel may use per
	// target fit (MethodLMS only); it is copied into LMS.Workers when
	// that field is unset. The fitted coefficients are bit-for-bit
	// identical at every worker count, so this is purely a latency knob.
	Workers int
}

// Model is the fitted overhead estimation model. A is the single-VM
// coefficient matrix a of Eq. 2; O is the co-location coefficient matrix o
// of Eq. 3 (present only when trained with multi-VM data).
type Model struct {
	A    [NumTargets]Row
	O    [NumTargets]Row
	HasO bool
}

// Alpha is the co-location scaling α(N) of Eq. 3: zero for a single VM and
// linear in N beyond it (the paper assumes linearity "to simplify the
// analysis", supported by the near-linear trends of Section IV-B).
func Alpha(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n - 1)
}

// Prediction is the model output for one PM.
type Prediction struct {
	// Dom0CPU and HypCPU are the predicted overhead components.
	Dom0CPU, HypCPU float64
	// PM is the predicted host utilization. PM.CPU = guest CPU sum +
	// Dom0CPU + HypCPU (the paper's indirect PM CPU computation).
	PM units.Vector
}

// featureRows extracts the regression features of every sample: one row
// [CPU, Mem, IO, BW] per sample, all rows sharing one backing array.
func featureRows(samples []Sample) [][]float64 {
	back := make([]float64, 4*len(samples))
	xs := make([][]float64, len(samples))
	for i, s := range samples {
		x := back[4*i : 4*i+4 : 4*i+4]
		x[0], x[1], x[2], x[3] = s.VMSum.CPU, s.VMSum.Mem, s.VMSum.IO, s.VMSum.BW
		xs[i] = x
	}
	return xs
}

// fitCoefficients runs the configured regression on pre-built feature rows
// and returns the intercept-first coefficient vector.
func fitCoefficients(xs [][]float64, ys []float64, opt FitOptions) ([]float64, error) {
	var fit *stats.Fit
	var err error
	switch opt.Method {
	case MethodLMS:
		lopt := opt.LMS
		if lopt.Subsamples == 0 {
			lopt.Subsamples = 500
		}
		if lopt.Workers == 0 {
			lopt.Workers = opt.Workers
		}
		lopt.Refine = true
		fit, err = stats.LMS(xs, ys, true, lopt)
	default:
		if opt.Ridge > 0 {
			fit, err = stats.Ridge(xs, ys, true, opt.Ridge)
		} else {
			fit, err = stats.OLS(xs, ys, true)
		}
	}
	if err != nil {
		return nil, err
	}
	return fit.Coef, nil
}

// fitTargets fits one coefficient row per target over samples. Every
// target regresses on the same feature rows, so those are built once;
// plain OLS also factors the design once (stats.FactorOLS) and solves it
// per target, bit-identical to one OLS fit per target. LMS, ridge, and a
// design FactorOLS rejects take one fit per target, which applies OLS's
// ridge fallback and reports errors as "core: fitting <what><target>".
// A row with a NaN or infinite coefficient is such an error: samples of
// extreme magnitude overflow the regression, and a model that predicts
// NaN is of no use to anyone it is served to.
func fitTargets(samples []Sample, opt FitOptions, what string) ([NumTargets]Row, error) {
	var rows [NumTargets]Row
	xs := featureRows(samples)
	var shared *stats.OLSFactor
	if opt.Method == MethodOLS && opt.Ridge == 0 {
		shared, _ = stats.FactorOLS(xs, true) // nil on error: fit per target
	}
	ys := make([]float64, len(samples))
	for _, t := range Targets() {
		for i, s := range samples {
			ys[i] = s.target(t)
		}
		var err error
		if shared != nil {
			err = shared.Solve(ys, rows[t][:])
		} else {
			var coef []float64
			coef, err = fitCoefficients(xs, ys, opt)
			copy(rows[t][:], coef)
		}
		if err == nil && !rows[t].finite() {
			err = errNonFinite
		}
		if err != nil {
			return rows, fmt.Errorf("core: fitting %s%v: %w", what, t, err)
		}
	}
	return rows, nil
}

// errNonFinite reports a fit whose coefficients overflowed.
var errNonFinite = errors.New("non-finite coefficient (the samples overflow the regression)")

// finite reports whether every coefficient of r is a finite number.
func (r Row) finite() bool {
	for _, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TrainSingle fits the single-VM model (Eq. 1-2) from N=1 samples.
// Samples with N != 1 are rejected.
func TrainSingle(samples []Sample, opt FitOptions) (*Model, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("core: TrainSingle: no samples")
	}
	for i, s := range samples {
		if s.N != 1 {
			return nil, fmt.Errorf("core: TrainSingle: sample %d has N=%d, want 1", i, s.N)
		}
	}
	a, err := fitTargets(samples, opt, "")
	if err != nil {
		return nil, err
	}
	return &Model{A: a}, nil
}

// Train fits the full model: the single-VM matrix a from the N=1 samples
// and the co-location matrix o from the residuals of the multi-VM samples
// (Eq. 3 with α(N)=N−1). multi may be empty, yielding a model with HasO
// false that degrades to Eq. 2.
func Train(single, multi []Sample, opt FitOptions) (*Model, error) {
	m, err := TrainSingle(single, opt)
	if err != nil {
		return nil, err
	}
	if len(multi) == 0 {
		return m, nil
	}
	// o is fitted on per-α residuals: (y − a·x) / α(N).
	resid := make([]Sample, 0, len(multi))
	for i, s := range multi {
		if s.N < 2 {
			return nil, fmt.Errorf("core: Train: multi sample %d has N=%d, want >= 2", i, s.N)
		}
		alpha := Alpha(s.N)
		r := s // copy
		r.Dom0CPU = (s.Dom0CPU - m.A[TargetDom0CPU].Apply(s.VMSum)) / alpha
		r.HypCPU = (s.HypCPU - m.A[TargetHypCPU].Apply(s.VMSum)) / alpha
		r.PM = units.V(
			s.PM.CPU,
			(s.PM.Mem-m.A[TargetPMMem].Apply(s.VMSum))/alpha,
			(s.PM.IO-m.A[TargetPMIO].Apply(s.VMSum))/alpha,
			(s.PM.BW-m.A[TargetPMBW].Apply(s.VMSum))/alpha,
		)
		resid = append(resid, r)
	}
	if m.O, err = fitTargets(resid, opt, "o for "); err != nil {
		return nil, err
	}
	m.HasO = true
	return m, nil
}

// predictTarget evaluates one target at a guest sum for N co-located VMs.
func (m *Model) predictTarget(t Target, sum units.Vector, n int) float64 {
	y := m.A[t].Apply(sum)
	if m.HasO {
		if a := Alpha(n); a > 0 {
			y += a * m.O[t].Apply(sum)
		}
	}
	if y < 0 {
		y = 0
	}
	return y
}

// Predict estimates the PM utilization from the utilizations of its guest
// VMs (Eq. 2 for one VM, Eq. 3 for several). It panics on an empty slice.
func (m *Model) Predict(vms []units.Vector) Prediction {
	if len(vms) == 0 {
		panic("core: Predict with no VMs")
	}
	sum := units.Sum(vms...)
	n := len(vms)
	p := Prediction{
		Dom0CPU: m.predictTarget(TargetDom0CPU, sum, n),
		HypCPU:  m.predictTarget(TargetHypCPU, sum, n),
	}
	p.PM = units.V(
		sum.CPU+p.Dom0CPU+p.HypCPU,
		m.predictTarget(TargetPMMem, sum, n),
		m.predictTarget(TargetPMIO, sum, n),
		m.predictTarget(TargetPMBW, sum, n),
	)
	return p
}

// PredictSample applies the model to an evaluation sample.
func (m *Model) PredictSample(s Sample) Prediction {
	sum := s.VMSum
	p := Prediction{
		Dom0CPU: m.predictTarget(TargetDom0CPU, sum, s.N),
		HypCPU:  m.predictTarget(TargetHypCPU, sum, s.N),
	}
	p.PM = units.V(
		sum.CPU+p.Dom0CPU+p.HypCPU,
		m.predictTarget(TargetPMMem, sum, s.N),
		m.predictTarget(TargetPMIO, sum, s.N),
		m.predictTarget(TargetPMBW, sum, s.N),
	)
	return p
}

// Overhead returns the estimated virtualization overhead for a prospective
// co-location: the part of the PM utilization that is NOT the plain sum of
// the guests (Dom0 + hypervisor CPU; PM-minus-sum for mem, IO, BW). VM
// placement uses this to reserve headroom (Section VI-B).
func (m *Model) Overhead(vms []units.Vector) units.Vector {
	p := m.Predict(vms)
	sum := units.Sum(vms...)
	return p.PM.Sub(sum).ClampNonNegative()
}

// CoefficientCIs computes percentile-bootstrap confidence intervals for
// the single-VM coefficient matrix a, one interval set per target. Use it
// to judge which overhead relationships the measurement campaign actually
// pins down (e.g. the Dom0 bandwidth slope is tight; the memory column is
// wide because Dom0 CPU does not depend on guest memory).
//
// Target t bootstraps on its own random stream (seed+t) and only reads
// the shared feature rows, so the targets run on up to GOMAXPROCS
// goroutines and each interval is the one a serial loop would compute.
// If any target fails, the lowest failing target's error is returned
// with no intervals.
func CoefficientCIs(samples []Sample, b int, conf float64, seed int64) ([NumTargets]*stats.CoefCI, error) {
	var out [NumTargets]*stats.CoefCI
	if len(samples) == 0 {
		return out, errors.New("core: CoefficientCIs: no samples")
	}
	xs := featureRows(samples)
	targets := make(chan Target, NumTargets)
	for _, t := range Targets() {
		targets <- t
	}
	close(targets)
	var errs [NumTargets]error
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), NumTargets); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ys := make([]float64, len(samples))
			for t := range targets {
				for i, s := range samples {
					ys[i] = s.target(t)
				}
				out[t], errs[t] = stats.BootstrapOLS(xs, ys, true, b, conf, seed+int64(t))
			}
		}()
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return [NumTargets]*stats.CoefCI{}, fmt.Errorf("core: bootstrap for %v: %w", Target(t), err)
		}
	}
	return out, nil
}

// String renders the coefficient matrices in a readable table.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString("virtualization overhead model (Eq. 1-3)\n")
	b.WriteString("matrix a (single VM):\n")
	renderRows(&b, m.A)
	if m.HasO {
		b.WriteString("matrix o (co-location, scaled by alpha(N)=N-1):\n")
		renderRows(&b, m.O)
	}
	return b.String()
}

func renderRows(b *strings.Builder, rows [NumTargets]Row) {
	fmt.Fprintf(b, "  %-15s %12s %12s %12s %12s %12s\n", "target", "const", "cpu", "mem", "io", "bw")
	for _, t := range Targets() {
		r := rows[t]
		fmt.Fprintf(b, "  %-15s %12.5f %12.5f %12.5f %12.5f %12.5f\n", t, r[0], r[1], r[2], r[3], r[4])
	}
}
