package stats

import (
	"errors"
	"fmt"
	"math"
)

// Fit is a fitted linear model y ≈ X·Coef. When Intercept is true the first
// coefficient is the constant term and prediction inputs must NOT include
// the constant column (it is added internally).
type Fit struct {
	Coef      []float64
	Intercept bool
	// Diagnostics over the training set.
	N         int     // observations
	RSS       float64 // residual sum of squares
	TSS       float64 // total sum of squares (about the mean)
	R2        float64 // 1 - RSS/TSS (0 when TSS == 0)
	MedianSqR float64 // median of squared residuals (the LMS objective)
}

// Predict evaluates the fitted model at feature vector x (without the
// intercept column).
func (f *Fit) Predict(x []float64) (float64, error) {
	want := len(f.Coef)
	if f.Intercept {
		want--
	}
	if len(x) != want {
		return 0, fmt.Errorf("stats: Predict feature length %d, want %d", len(x), want)
	}
	var y float64
	i := 0
	if f.Intercept {
		y = f.Coef[0]
		i = 1
	}
	for j, xv := range x {
		y += f.Coef[i+j] * xv
	}
	return y, nil
}

// designMatrix assembles the design matrix, prepending a 1s column when
// intercept is set.
func designMatrix(xs [][]float64, intercept bool) (*Matrix, error) {
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
	for i, row := range xs {
		if len(row) != p {
			return nil, fmt.Errorf("stats: observation %d has %d features, want %d", i, len(row), p)
		}
	}
	m := NewMatrix(len(xs), cols)
	fillDesign(m, xs, intercept)
	return m, nil
}

// fillDesign writes the rows of xs into m, which must already have the
// design's shape, with a leading 1 per row when intercept is set.
func fillDesign(m *Matrix, xs [][]float64, intercept bool) {
	for i, row := range xs {
		d := m.Data[i*m.Cols : (i+1)*m.Cols]
		if intercept {
			d[0] = 1
			d = d[1:]
		}
		copy(d, row)
	}
}

func residualDiagnostics(f *Fit, xs [][]float64, ys []float64) {
	f.N = len(ys)
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	res2 := make([]float64, len(ys))
	for i, x := range xs {
		pred, _ := f.Predict(x)
		r := ys[i] - pred
		f.RSS += r * r
		res2[i] = r * r
		d := ys[i] - mean
		f.TSS += d * d
	}
	if f.TSS > 0 {
		f.R2 = 1 - f.RSS/f.TSS
	}
	f.MedianSqR = MedianInPlace(res2) // res2 is local scratch; skip Median's copy
}

// OLS fits y ≈ X·beta by ordinary least squares using Householder QR
// (numerically safer than normal equations for correlated regressors, which
// the paper's VM utilization metrics are). xs rows are feature vectors
// without the intercept column.
func OLS(xs [][]float64, ys []float64, intercept bool) (*Fit, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: OLS got %d feature rows and %d targets", len(xs), len(ys))
	}
	x, err := designMatrix(xs, intercept)
	if err != nil {
		return nil, err
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("stats: OLS needs at least %d observations, got %d", x.Cols, x.Rows)
	}
	beta, err := qrSolve(x, ys)
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

// OLSFactor is an OLS design factored once, so that every target that
// shares the design is fitted for one solve instead of a whole fit.
type OLSFactor struct {
	q qrFactor
}

// FactorOLS builds the design of xs, with a leading column of ones when
// intercept is set, and factors it. Solve then fits any target over that
// design, bit-identical to OLS(xs, ys, intercept).Coef. It does not take
// OLS's ridge fallback: a design with fewer rows than columns, or one QR
// finds rank deficient, is an error, and the caller fits such a design's
// targets with OLS.
func FactorOLS(xs [][]float64, intercept bool) (*OLSFactor, error) {
	x, err := designMatrix(xs, intercept)
	if err != nil {
		return nil, err
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("stats: FactorOLS needs at least %d observations, got %d", x.Cols, x.Rows)
	}
	f := &OLSFactor{}
	if err := f.q.factor(x); err != nil {
		return nil, err
	}
	return f, nil
}

// Solve writes the OLS coefficients of targets ys (one per design row)
// into coef (one per design column, intercept first).
func (f *OLSFactor) Solve(ys, coef []float64) error {
	if len(ys) != f.q.r.Rows || len(coef) != f.q.r.Cols {
		return fmt.Errorf("stats: OLSFactor.Solve got %d targets and %d coefficients for a %dx%d design",
			len(ys), len(coef), f.q.r.Rows, f.q.r.Cols)
	}
	f.q.solve(ys, coef)
	return nil
}

// ridgeNormalEquations solves (X^T X + lambda I) beta = X^T y. The tiny
// ridge keeps the system invertible when columns are collinear or constant.
func ridgeNormalEquations(x *Matrix, ys []float64, lambda float64) ([]float64, error) {
	xt := x.Transpose()
	xtx, err := xt.Mul(x)
	if err != nil {
		return nil, err
	}
	for i := 0; i < xtx.Rows; i++ {
		xtx.Data[i*xtx.Cols+i] += lambda
	}
	xty, err := xt.MulVec(ys)
	if err != nil {
		return nil, err
	}
	return SolveLinear(xtx, xty)
}

// Ridge fits y ≈ X·beta with a standardized L2 penalty: feature columns
// are centered (when an intercept is requested) and scaled to unit spread
// before the penalty lambda is applied, so the shrinkage is comparable
// across features with very different magnitudes (CPU percent vs Kb/s) and
// the intercept is never penalized. Constant columns receive a zero
// coefficient. lambda <= 0 degrades to OLS on the standardized system.
func Ridge(xs [][]float64, ys []float64, intercept bool, lambda float64) (*Fit, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: Ridge got %d feature rows and %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, errors.New("stats: no observations")
	}
	if lambda < 0 {
		lambda = 0
	}
	n := len(xs)
	p := len(xs[0])
	for i, row := range xs {
		if len(row) != p {
			return nil, fmt.Errorf("stats: observation %d has %d features, want %d", i, len(row), p)
		}
	}
	if p == 0 {
		if !intercept {
			return nil, errors.New("stats: empty feature rows without intercept")
		}
		f := &Fit{Coef: []float64{Mean(ys)}, Intercept: true}
		residualDiagnostics(f, xs, ys)
		return f, nil
	}

	// Column statistics.
	means := make([]float64, p)
	scales := make([]float64, p)
	for j := 0; j < p; j++ {
		var m float64
		for i := 0; i < n; i++ {
			m += xs[i][j]
		}
		m /= float64(n)
		if intercept {
			means[j] = m
		}
		var ss float64
		for i := 0; i < n; i++ {
			d := xs[i][j] - means[j]
			ss += d * d
		}
		scales[j] = math.Sqrt(ss / float64(n))
		if scales[j] < 1e-12 {
			scales[j] = 0 // constant column: coefficient forced to zero
		}
	}
	var yMean float64
	if intercept {
		yMean = Mean(ys)
	}

	// Standardized system.
	z := NewMatrix(n, p)
	ty := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			if scales[j] > 0 {
				z.SetAt(i, j, (xs[i][j]-means[j])/scales[j])
			}
		}
		ty[i] = ys[i] - yMean
	}
	b, err := ridgeNormalEquations(z, ty, lambda+1e-10)
	if err != nil {
		return nil, err
	}

	// Back-transform.
	coef := make([]float64, 0, p+1)
	var b0 float64
	slopes := make([]float64, p)
	for j := 0; j < p; j++ {
		if scales[j] > 0 {
			slopes[j] = b[j] / scales[j]
		}
		b0 -= slopes[j] * means[j]
	}
	if intercept {
		coef = append(coef, yMean+b0)
	}
	coef = append(coef, slopes...)
	f := &Fit{Coef: coef, Intercept: intercept}
	residualDiagnostics(f, xs, ys)
	return f, nil
}

// RMSE returns the root-mean-squared training error of the fit.
func (f *Fit) RMSE() float64 {
	if f.N == 0 {
		return 0
	}
	return math.Sqrt(f.RSS / float64(f.N))
}
