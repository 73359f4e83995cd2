package stats

// Reference implementations for the bit-identity gate
// (bitident_test.go): BootstrapOLS, OLS, designMatrix and qrSolve as they
// were before the QR factor/solve split, when every bootstrap replicate
// ran a full OLS with its own design, factorisation and residual
// diagnostics; and FFT, PowerSpectrum and DominantPeriod as they were
// before the twiddle tables, when every butterfly evaluated its own
// complex exponential. They are kept verbatim apart from their names; do
// not "improve" them, since their only job is to pin the old arithmetic.

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

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

// refFFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley-Tukey algorithm. len(x) must be a power of two (use
// NextPow2 + zero padding). The input is not modified.
func refFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("stats: FFT of empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("stats: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		rev := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				rev |= 1 << (bits - 1 - b)
			}
		}
		out[rev] = x[i]
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out, nil
}

// refPowerSpectrum returns |X_k|^2 / n for k = 0..n/2 of the mean-removed,
// zero-padded series (bin 0 is therefore ~0). The returned slice has
// NextPow2(len(xs))/2 + 1 entries.
func refPowerSpectrum(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: PowerSpectrum of empty input")
	}
	mean := Mean(xs)
	n := NextPow2(len(xs))
	buf := make([]complex128, n)
	for i, v := range xs {
		buf[i] = complex(v-mean, 0)
	}
	X, err := refFFT(buf)
	if err != nil {
		return nil, err
	}
	half := n/2 + 1
	ps := make([]float64, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(X[k])
		ps[k] = m * m / float64(n)
	}
	return ps, nil
}

// refDominantPeriod finds the strongest periodic component of xs. It returns
// the period in samples and its strength: the fraction of total spectral
// power concentrated in that frequency bin (0..1). A short or constant
// series returns (0, 0).
func refDominantPeriod(xs []float64) (period int, strength float64) {
	if len(xs) < 4 {
		return 0, 0
	}
	ps, err := refPowerSpectrum(xs)
	if err != nil {
		return 0, 0
	}
	var total float64
	bestK := 0
	var bestP float64
	for k := 1; k < len(ps); k++ { // skip DC
		total += ps[k]
		if ps[k] > bestP {
			bestP, bestK = ps[k], k
		}
	}
	if total <= 0 || bestK == 0 {
		return 0, 0
	}
	n := NextPow2(len(xs))
	period = int(math.Round(float64(n) / float64(bestK)))
	if period < 2 || period > len(xs)/2 {
		return 0, 0
	}
	// Zero padding to a power of two quantizes the frequency grid and can
	// bias the period by several samples; refine against the actual series
	// with an autocorrelation search around the FFT candidate.
	period = RefinePeriodACF(xs, period)
	return period, bestP / total
}
