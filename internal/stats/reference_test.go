package stats

// Reference implementations for the bit-identity gate
// (bitident_test.go): BootstrapOLS, OLS, designMatrix and qrSolve as they
// were before the QR factor/solve split, when every bootstrap replicate
// ran a full OLS with its own design, factorisation and residual
// diagnostics. They are kept verbatim apart from their names; do not
// "improve" them, since their only job is to pin the old arithmetic.

import (
	"errors"
	"fmt"
	"math"

	"virtover/internal/simrand"
)

// refBootstrapOLS computes percentile bootstrap confidence intervals for OLS
// coefficients by resampling observations with replacement B times and
// refitting. conf is the two-sided confidence level in (0,1); B <= 0
// selects 200 replicates. Replicates whose resample is degenerate (rank
// deficient) are skipped; an error is returned when fewer than half
// survive.
func refBootstrapOLS(xs [][]float64, ys []float64, intercept bool, B int, conf float64, seed int64) (*CoefCI, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: BootstrapOLS got %d feature rows and %d targets", len(xs), len(ys))
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("stats: BootstrapOLS confidence %v out of (0,1)", conf)
	}
	if B <= 0 {
		B = 200
	}
	full, err := refOLS(xs, ys, intercept)
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
		fit, err := refOLS(rx, ry, intercept)
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
	out := &CoefCI{
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
		out.Lo[j] = PercentileInPlace(col, 100*alpha)
		out.Hi[j] = PercentileInPlace(col, 100*(1-alpha))
	}
	return out, nil
}

// refOLS fits y ≈ X·beta by ordinary least squares using Householder QR
// (numerically safer than normal equations for correlated regressors, which
// the paper's VM utilization metrics are). xs rows are feature vectors
// without the intercept column.
func refOLS(xs [][]float64, ys []float64, intercept bool) (*Fit, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: OLS got %d feature rows and %d targets", len(xs), len(ys))
	}
	x, err := refDesignMatrix(xs, intercept)
	if err != nil {
		return nil, err
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("stats: OLS needs at least %d observations, got %d", x.Cols, x.Rows)
	}
	beta, err := refQRSolve(x, ys)
	if err != nil {
		// Fall back to ridge-stabilized normal equations for rank-deficient
		// designs (e.g. a workload that never exercises one resource).
		beta, err = ridgeNormalEquations(x, ys, 1e-8)
		if err != nil {
			return nil, err
		}
	}
	f := &Fit{Coef: beta, Intercept: intercept}
	residualDiagnostics(f, xs, ys)
	return f, nil
}

// refDesignMatrix assembles the design matrix, prepending a 1s column when
// intercept is set.
func refDesignMatrix(xs [][]float64, intercept bool) (*Matrix, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: no observations")
	}
	p := len(xs[0])
	if p == 0 && !intercept {
		return nil, errors.New("stats: empty feature rows without intercept")
	}
	cols := p
	if intercept {
		cols++
	}
	m := NewMatrix(len(xs), cols)
	for i, row := range xs {
		if len(row) != p {
			return nil, fmt.Errorf("stats: observation %d has %d features, want %d", i, len(row), p)
		}
		j := 0
		if intercept {
			m.SetAt(i, 0, 1)
			j = 1
		}
		for k, v := range row {
			m.SetAt(i, j+k, v)
		}
	}
	return m, nil
}

// refQRSolve solves the least-squares problem min ||A x - b||_2 using
// Householder QR with column checks. A must have Rows >= Cols.
func refQRSolve(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("stats: qrSolve: underdetermined system %dx%d", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("stats: qrSolve rhs length %d, want %d", len(b), m)
	}
	r := a.Clone()
	y := make([]float64, m)
	copy(y, b)

	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.Data[i*n+k] * r.Data[i*n+k]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			return nil, fmt.Errorf("stats: qrSolve: rank-deficient at column %d", k)
		}
		if r.Data[k*n+k] > 0 {
			norm = -norm
		}
		v := make([]float64, m-k)
		for i := k; i < m; i++ {
			v[i-k] = r.Data[i*n+k]
		}
		v[0] -= norm
		var vnorm2 float64
		for _, vi := range v {
			vnorm2 += vi * vi
		}
		if vnorm2 < 1e-24 {
			continue
		}
		// Apply H = I - 2 v v^T / (v^T v) to R's trailing columns and to y.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * r.Data[i*n+j]
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.Data[i*n+j] -= f * v[i-k]
			}
		}
		var dot float64
		for i := k; i < m; i++ {
			dot += v[i-k] * y[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			y[i] -= f * v[i-k]
		}
	}
	// Back substitution on the upper-triangular leading n x n block.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.Data[i*n+j] * x[j]
		}
		d := r.Data[i*n+i]
		if math.Abs(d) < 1e-12 {
			return nil, fmt.Errorf("stats: qrSolve: zero pivot at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}
