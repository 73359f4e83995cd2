package stats

import (
	"fmt"

	"virtover/internal/simrand"
)

// CoefCI holds pointwise bootstrap confidence intervals for regression
// coefficients (intercept first when the fit has one).
type CoefCI struct {
	Point []float64 // coefficients of the full-data fit
	Lo    []float64 // lower confidence bounds
	Hi    []float64 // upper confidence bounds
	Conf  float64   // confidence level, e.g. 0.9
	B     int       // bootstrap replicates
}

// BootstrapOLS computes percentile bootstrap confidence intervals for OLS
// coefficients by resampling observations with replacement B times and
// refitting. conf is the two-sided confidence level in (0,1); B <= 0
// selects 200 replicates. Replicates whose resample is degenerate (rank
// deficient) are skipped; an error is returned when fewer than half
// survive.
//
// A replicate needs only the coefficients: it factors its resampled
// design into reused scratch and solves, and a design QR rejects takes
// OLS's ridge fallback, so every replicate's coefficients are
// bit-identical to OLS's on the same resample. With no feature columns
// the design is the same column of ones in every resample, so it is
// factored once and each replicate is a single solve.
func BootstrapOLS(xs [][]float64, ys []float64, intercept bool, B int, conf float64, seed int64) (*CoefCI, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: BootstrapOLS got %d feature rows and %d targets", len(xs), len(ys))
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("stats: BootstrapOLS confidence %v out of (0,1)", conf)
	}
	if B <= 0 {
		B = 200
	}
	full, err := OLS(xs, ys, intercept)
	if err != nil {
		return nil, err
	}
	p := len(full.Coef)
	n := len(xs)
	rng := simrand.New(seed)

	// OLS has validated xs, so every resample has the full fit's shape.
	// An intercept-only design is the same column of ones in every
	// resample: factor it once.
	x := NewMatrix(n, p)
	var q qrFactor
	fixed := len(xs[0]) == 0
	if fixed {
		fillDesign(x, xs, intercept)
		fixed = q.factor(x) == nil
	}
	coefs := make([]float64, 0, B*p) // replicate-major, p per replicate
	var rx [][]float64               // resampled rows; a fixed design needs none
	if !fixed {
		rx = make([][]float64, n)
	}
	ry := make([]float64, n)
	idx := make([]int, n) // one replicate's resample, drawn as a batch
	for b := 0; b < B; b++ {
		rng.FillIntn(idx, n)
		for i, j := range idx {
			ry[i] = ys[j]
		}
		if !fixed {
			for i, j := range idx {
				rx[i] = xs[j]
			}
		}
		if !fixed {
			fillDesign(x, rx, intercept)
			if q.factor(x) != nil {
				// Rank deficient: OLS's ridge fallback, as a full fit takes.
				if fit, err := OLS(rx, ry, intercept); err == nil {
					coefs = append(coefs, fit.Coef...)
				}
				continue
			}
		}
		coefs = coefs[:len(coefs)+p]
		q.solve(ry, coefs[len(coefs)-p:])
	}
	kept := len(coefs) / p
	if kept < B/2 {
		return nil, fmt.Errorf("stats: BootstrapOLS: only %d of %d replicates converged", kept, B)
	}
	out := &CoefCI{
		Point: append([]float64(nil), full.Coef...),
		Lo:    make([]float64, p),
		Hi:    make([]float64, p),
		Conf:  conf,
		B:     kept,
	}
	alpha := (1 - conf) / 2
	col := make([]float64, kept)
	for j := 0; j < p; j++ {
		for i := range col {
			col[i] = coefs[i*p+j]
		}
		// col is scratch rebuilt per coefficient; the in-place selection
		// skips Percentile's copy+sort on every replicate column.
		out.Lo[j] = PercentileInPlace(col, 100*alpha)
		out.Hi[j] = PercentileInPlace(col, 100*(1-alpha))
	}
	return out, nil
}

// Contains reports whether coefficient j's interval contains v.
func (ci *CoefCI) Contains(j int, v float64) bool {
	return v >= ci.Lo[j] && v <= ci.Hi[j]
}

// Width returns the interval width of coefficient j.
func (ci *CoefCI) Width(j int) float64 { return ci.Hi[j] - ci.Lo[j] }
