package core

// Reference implementations for the bit-identity gate
// (bitident_test.go): the per-target training path (Train, TrainSingle
// and their helpers) and CompareOnWindow with the BootstrapOLS it called,
// as they were before training and the bootstrap factored each design
// once. They are kept verbatim apart from their names and package
// qualifiers; do not "improve" them, since their only job is to pin the
// old arithmetic. (stats pins its own OLS against its previous QR
// solver, so stats.OLS here stands for the old one.)

import (
	"errors"
	"fmt"

	"virtover/internal/simrand"
	"virtover/internal/stats"
	"virtover/internal/units"
)

// refFeatures extracts the regression features from a summed guest vector.
func refFeatures(v units.Vector) []float64 {
	return []float64{v.CPU, v.Mem, v.IO, v.BW}
}

// refFitCoefficients runs the configured regression on pre-built feature rows
// and returns the intercept-first coefficient vector.
func refFitCoefficients(xs [][]float64, ys []float64, opt FitOptions) ([]float64, error) {
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

func refFitRows(samples []Sample, ys func(Sample) float64, opt FitOptions) (Row, error) {
	xs := make([][]float64, len(samples))
	targets := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = refFeatures(s.VMSum)
		targets[i] = ys(s)
	}
	coef, err := refFitCoefficients(xs, targets, opt)
	if err != nil {
		return Row{}, err
	}
	var r Row
	copy(r[:], coef)
	return r, nil
}

// refTrainSingle fits the single-VM model (Eq. 1-2) from N=1 samples.
// Samples with N != 1 are rejected.
func refTrainSingle(samples []Sample, opt FitOptions) (*Model, error) {
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
	m := &Model{}
	for _, t := range Targets() {
		t := t
		row, err := refFitRows(samples, func(s Sample) float64 { return s.target(t) }, opt)
		if err != nil {
			return nil, fmt.Errorf("core: fitting %v: %w", t, err)
		}
		m.A[t] = row
	}
	return m, nil
}

// refTrain fits the full model: the single-VM matrix a from the N=1 samples
// and the co-location matrix o from the residuals of the multi-VM samples
// (Eq. 3 with α(N)=N−1). multi may be empty, yielding a model with HasO
// false that degrades to Eq. 2.
func refTrain(single, multi []Sample, opt FitOptions) (*Model, error) {
	m, err := refTrainSingle(single, opt)
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
	for _, t := range Targets() {
		t := t
		row, err := refFitRows(resid, func(s Sample) float64 { return s.target(t) }, opt)
		if err != nil {
			return nil, fmt.Errorf("core: fitting o for %v: %w", t, err)
		}
		m.O[t] = row
	}
	m.HasO = true
	return m, nil
}

// refCompareOnWindow scores challenger against incumbent on a shared
// evaluation window and bootstraps a confidence interval on the mean
// paired residual advantage. The report's Significant field is the
// service's drift rule: swap only when the interval's lower bound clears
// zero. Note the comparison is in-sample for the challenger (it was
// typically fitted on this very window), which biases mildly toward
// swapping; the CI gate is what keeps noise-level "improvements" from
// churning the served model.
func refCompareOnWindow(incumbent, challenger *Model, samples []Sample, opt DriftOptions) (*DriftReport, error) {
	if incumbent == nil || challenger == nil {
		return nil, errors.New("core: CompareOnWindow: nil model")
	}
	if len(samples) == 0 {
		return nil, errors.New("core: CompareOnWindow: no samples")
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(samples)
	d := make([]float64, n)
	rep := &DriftReport{Conf: opt.Conf}
	for i, s := range samples {
		ri := absResidual(incumbent, s)
		rc := absResidual(challenger, s)
		rep.IncumbentMAE += ri
		rep.ChallengerMAE += rc
		d[i] = ri - rc
	}
	rep.IncumbentMAE /= float64(n)
	rep.ChallengerMAE /= float64(n)

	// Intercept-only bootstrap regression: with zero feature columns the
	// fitted intercept is the sample mean, so BootstrapOLS hands back a
	// percentile-bootstrap CI of mean(d) without a second bootstrap
	// implementation.
	xs := make([][]float64, n)
	empty := []float64{}
	for i := range xs {
		xs[i] = empty
	}
	ci, err := refBootstrapOLS(xs, d, true, opt.B, opt.Conf, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: CompareOnWindow: %w", err)
	}
	rep.MeanDelta = ci.Point[0]
	rep.Lo, rep.Hi = ci.Lo[0], ci.Hi[0]
	rep.B = ci.B
	rep.Significant = rep.Lo > 0
	return rep, nil
}

// refBootstrapOLS computes percentile bootstrap confidence intervals for OLS
// coefficients by resampling observations with replacement B times and
// refitting. conf is the two-sided confidence level in (0,1); B <= 0
// selects 200 replicates. Replicates whose resample is degenerate (rank
// deficient) are skipped; an error is returned when fewer than half
// survive.
func refBootstrapOLS(xs [][]float64, ys []float64, intercept bool, B int, conf float64, seed int64) (*stats.CoefCI, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: BootstrapOLS got %d feature rows and %d targets", len(xs), len(ys))
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("stats: BootstrapOLS confidence %v out of (0,1)", conf)
	}
	if B <= 0 {
		B = 200
	}
	full, err := stats.OLS(xs, ys, intercept)
	if err != nil {
		return nil, err
	}
	p := len(full.Coef)
	n := len(xs)
	rng := simrand.New(seed)

	coefs := make([][]float64, 0, B)
	rx := make([][]float64, n)
	ry := make([]float64, n)
	for b := 0; b < B; b++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			rx[i] = xs[j]
			ry[i] = ys[j]
		}
		fit, err := stats.OLS(rx, ry, intercept)
		if err != nil {
			continue
		}
		c := make([]float64, p)
		copy(c, fit.Coef)
		coefs = append(coefs, c)
	}
	if len(coefs) < B/2 {
		return nil, fmt.Errorf("stats: BootstrapOLS: only %d of %d replicates converged", len(coefs), B)
	}
	out := &stats.CoefCI{
		Point: append([]float64(nil), full.Coef...),
		Lo:    make([]float64, p),
		Hi:    make([]float64, p),
		Conf:  conf,
		B:     len(coefs),
	}
	alpha := (1 - conf) / 2
	col := make([]float64, len(coefs))
	for j := 0; j < p; j++ {
		for i, c := range coefs {
			col[i] = c[j]
		}
		// col is scratch rebuilt per coefficient; the in-place selection
		// skips Percentile's copy+sort on every replicate column.
		out.Lo[j] = stats.PercentileInPlace(col, 100*alpha)
		out.Hi[j] = stats.PercentileInPlace(col, 100*(1-alpha))
	}
	return out, nil
}
