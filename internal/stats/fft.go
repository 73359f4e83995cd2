package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// This file implements the small signal-processing kernel CloudScale's
// demand predictor needs (the paper's reference [8] extracts repeating
// patterns — "signatures" — from per-VM demand series with an FFT): an
// iterative radix-2 FFT, the inverse transform, a power spectrum and
// dominant-period detection.

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley-Tukey algorithm. len(x) must be a power of two (use
// NextPow2 + zero padding). The input is not modified: FFT copies x into
// the result in bit-reversed order and transforms that copy in place.
//
// The butterflies read their twiddle factors from per-stage tables built
// once per process (see stageTwiddles), so a transform evaluates no
// complex exponential. Its bits are those of the textbook loop that
// evaluates exp(-2πik/size) in every butterfly: the table holds the values
// that loop computes, and each butterfly does the same multiply, add and
// subtract on the same operands.
func FFT(x []complex128) ([]complex128, error) {
	logn, err := fftLog2(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	shift := bits.UintSize - logn
	for i, v := range x {
		out[bits.Reverse(uint(i))>>shift] = v
	}
	butterflies(out, logn)
	return out, nil
}

// fftLog2 returns log2(n) for a valid FFT length n.
func fftLog2(n int) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("stats: FFT of empty input")
	}
	if n&(n-1) != 0 {
		return 0, fmt.Errorf("stats: FFT length %d is not a power of two", n)
	}
	return bits.TrailingZeros(uint(n)), nil
}

// butterflies runs the radix-2 stages over a, which holds the input in
// bit-reversed order and len(a) = 2^logn entries, leaving its transform
// in natural order. Within a stage each butterfly reads and writes only
// its own pair, so the loop order does not affect the result.
func butterflies(a []complex128, logn int) {
	for s := 1; s <= logn; s++ {
		w := stageTwiddles(s)
		half := len(w)
		for start := 0; start < len(a); start += 2 * half {
			lo, hi := a[start:start+half], a[start+half:start+2*half]
			hi = hi[:len(lo)] // equal lengths: the loop runs without bounds checks
			for k, wk := range w {
				p := lo[k]
				q := hi[k] * wk
				lo[k] = p + q
				hi[k] = p - q
			}
		}
	}
}

// twiddles holds the read-only twiddle table of each butterfly stage,
// indexed by log2 of the stage size and built on first use.
var twiddles [bits.UintSize]struct {
	once sync.Once
	w    []complex128
}

// stageTwiddles returns the twiddle factors exp(-2πik/size), k < size/2,
// of the stage of size 2^s. Each entry must be exactly
// cmplx.Exp(complex(0, step*float64(k))) with step = -2π/size: the
// per-butterfly reference FFT in reference_test.go evaluates that
// expression, and TestFFTBitIdenticalToReference compares bits.
func stageTwiddles(s int) []complex128 {
	t := &twiddles[s]
	t.once.Do(func() {
		size := 1 << s
		step := -2 * math.Pi / float64(size)
		w := make([]complex128, size/2)
		for k := range w {
			w[k] = cmplx.Exp(complex(0, step*float64(k)))
		}
		t.w = w
	})
	return t.w
}

// IFFT computes the inverse transform. len(X) must be a power of two.
func IFFT(X []complex128) ([]complex128, error) {
	n := len(X)
	conj := make([]complex128, n)
	for i, v := range X {
		conj[i] = cmplx.Conj(v)
	}
	y, err := FFT(conj)
	if err != nil {
		return nil, err
	}
	for i := range y {
		y[i] = cmplx.Conj(y[i]) / complex(float64(n), 0)
	}
	return y, nil
}

// centeredSpectrum returns the FFT of the mean-removed series zero-padded
// to NextPow2(len(xs)), computed in one buffer: the centered samples are
// written straight to their bit-reversed slots and transformed in place.
// len(xs) must be positive.
func centeredSpectrum(xs []float64) []complex128 {
	mean := Mean(xs)
	n := NextPow2(len(xs))
	logn := bits.TrailingZeros(uint(n))
	buf := make([]complex128, n)
	shift := bits.UintSize - logn
	for i, v := range xs {
		buf[bits.Reverse(uint(i))>>shift] = complex(v-mean, 0)
	}
	butterflies(buf, logn)
	return buf
}

// binPower is PowerSpectrum's entry for a transform bin of an n-point
// spectrum.
func binPower(x complex128, n int) float64 {
	m := cmplx.Abs(x)
	return m * m / float64(n)
}

// PowerSpectrum returns |X_k|^2 / n for k = 0..n/2 of the mean-removed,
// zero-padded series (bin 0 is therefore ~0). The returned slice has
// NextPow2(len(xs))/2 + 1 entries.
func PowerSpectrum(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: PowerSpectrum of empty input")
	}
	X := centeredSpectrum(xs)
	n := len(X)
	ps := make([]float64, n/2+1)
	for k := range ps {
		ps[k] = binPower(X[k], n)
	}
	return ps, nil
}

// DominantPeriod finds the strongest periodic component of xs. It returns
// the period in samples and its strength: the fraction of total spectral
// power concentrated in that frequency bin (0..1). A short or constant
// series returns (0, 0). It reads PowerSpectrum's bins straight from the
// transform buffer.
func DominantPeriod(xs []float64) (period int, strength float64) {
	if len(xs) < 4 {
		return 0, 0
	}
	X := centeredSpectrum(xs)
	n := len(X)
	var total float64
	bestK := 0
	var bestP float64
	for k := 1; k <= n/2; k++ { // skip DC
		p := binPower(X[k], n)
		total += p
		if p > bestP {
			bestP, bestK = p, k
		}
	}
	if total <= 0 || bestK == 0 {
		return 0, 0
	}
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

// RefinePeriodACF returns the lag within +/-30% of candidate that
// maximizes the series' normalized autocorrelation. It returns the
// candidate unchanged when the series is too short or constant.
func RefinePeriodACF(xs []float64, candidate int) int {
	n := len(xs)
	if candidate < 2 || n < 2*candidate {
		return candidate
	}
	mean := Mean(xs)
	var denom float64
	for _, x := range xs {
		d := x - mean
		denom += d * d
	}
	if denom <= 0 {
		return candidate
	}
	lo := candidate - candidate*3/10
	hi := candidate + candidate*3/10
	if lo < 2 {
		lo = 2
	}
	if hi > n/2 {
		hi = n / 2
	}
	best, bestR := candidate, math.Inf(-1)
	for lag := lo; lag <= hi; lag++ {
		var num float64
		for i := lag; i < n; i++ {
			num += (xs[i] - mean) * (xs[i-lag] - mean)
		}
		if r := num / denom; r > bestR {
			bestR, best = r, lag
		}
	}
	return best
}
