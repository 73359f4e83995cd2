package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity gate for the twiddle-table FFT: FFT, PowerSpectrum and
// DominantPeriod must reproduce the per-butterfly reference
// implementations in reference_test.go bit for bit (math.Float64bits),
// over seeded inputs of every power-of-two length up to 4,096 that
// include ±0, ±Inf, NaN, values near the float64 maximum and
// subnormals. NaN outputs are compared only as NaN: which NaN operand an
// add propagates is up to the compiler's operand order.

// Input kinds of a generated FFT case.
const (
	fftNormal    = iota // complex Gaussian
	fftWide             // magnitudes across 1e-300..1e300
	fftZeros            // +0 and -0 in both parts, a few ones
	fftSubnormal        // subnormal magnitudes only
	fftHuge             // near math.MaxFloat64: sums overflow to ±Inf
	fftSpecial          // Gaussian with one ±Inf or NaN
	fftReal             // real Gaussian, +0 imaginary parts (PowerSpectrum's input)
	numFFTKinds
)

// fftValue draws one part of an element of the given kind.
func fftValue(r *rand.Rand, kind int) float64 {
	switch kind {
	case fftWide:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(601)-300))
	case fftZeros:
		switch r.Intn(5) {
		case 0:
			return 1
		case 1, 2:
			return math.Copysign(0, -1)
		default:
			return 0
		}
	case fftSubnormal:
		return float64(r.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
	case fftHuge:
		return math.MaxFloat64 * (r.Float64()*2 - 1)
	default:
		return r.NormFloat64()
	}
}

// genFFTCase builds a seeded input of length n and the given kind.
func genFFTCase(r *rand.Rand, n, kind int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		re, im := fftValue(r, kind), fftValue(r, kind)
		if kind == fftReal {
			im = 0
		}
		x[i] = complex(re, im)
	}
	if kind == fftSpecial {
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308}
		v := specials[r.Intn(len(specials))]
		if r.Intn(2) == 0 {
			x[r.Intn(n)] = complex(v, imag(x[0]))
		} else {
			x[r.Intn(n)] = complex(real(x[0]), v)
		}
	}
	return x
}

// sameBitsOrNaN reports whether a and b carry the same bits, counting any
// two NaNs as equal.
func sameBitsOrNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestFFTBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var cases, nanOutputs int
	for n := 1; n <= 4096; n <<= 1 {
		reps := 32 * numFFTKinds
		if n > 256 {
			reps = 4 * numFFTKinds
		}
		for rep := 0; rep < reps; rep++ {
			kind := rep % numFFTKinds
			x := genFFTCase(r, n, kind)
			in := append([]complex128(nil), x...)
			got, gerr := FFT(x)
			want, werr := refFFT(x)
			if gerr != nil || werr != nil {
				t.Fatalf("n=%d kind=%d: error %v, reference %v", n, kind, gerr, werr)
			}
			for i := range want {
				if !sameBitsOrNaN(real(got[i]), real(want[i])) || !sameBitsOrNaN(imag(got[i]), imag(want[i])) {
					t.Fatalf("n=%d kind=%d rep=%d: X[%d] = %v, reference %v", n, kind, rep, i, got[i], want[i])
				}
				if math.IsNaN(real(want[i])) || math.IsNaN(imag(want[i])) {
					nanOutputs++
				}
			}
			for i := range in {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(in[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(in[i])) {
					t.Fatalf("n=%d kind=%d: FFT mutated input %d", n, kind, i)
				}
			}
			cases++
		}
	}
	if nanOutputs == 0 {
		t.Error("corpus produced no NaN output")
	}
	for _, n := range []int{0, 3, 6, 4095} {
		_, gerr := FFT(make([]complex128, n))
		_, werr := refFFT(make([]complex128, n))
		if !sameErr(gerr, werr) {
			t.Errorf("n=%d: error %v, reference %v", n, gerr, werr)
		}
	}
	t.Logf("%d inputs, %d NaN outputs", cases, nanOutputs)
}

// genSeries builds a seeded series of length n: case kind 0 is the
// scaling workload's noisy 20-80% square wave (random period and phase),
// 1 a noisy sine, 2 white noise, 3 a constant and 4 a square wave with
// spikes and ±0 samples.
func genSeries(r *rand.Rand, n, kind int) []float64 {
	xs := make([]float64, n)
	period := 2 + r.Float64()*float64(n)/2
	phase := r.Float64() * period
	for i := range xs {
		t := float64(i) + phase
		switch kind {
		case 0, 4:
			xs[i] = 20
			if math.Mod(t, period) < period/2 {
				xs[i] = 80
			}
			xs[i] += r.NormFloat64() * 3
			if kind == 4 && r.Intn(16) == 0 {
				xs[i] = []float64{0, math.Copysign(0, -1), 1e6, -1e6}[r.Intn(4)]
			}
		case 1:
			xs[i] = 40 + 20*math.Sin(2*math.Pi*t/period) + r.NormFloat64()
		case 2:
			xs[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(13)-6))
		case 3:
			xs[i] = 37.5
		}
	}
	return xs
}

func TestDominantPeriodBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var periodic, constant int
	for n := 4; n <= 512; n++ {
		for kind := 0; kind < 5; kind++ {
			if kind == 3 && n%7 != 0 {
				continue // constant series: a sample of lengths is enough
			}
			xs := genSeries(r, n, kind)
			name := fmt.Sprintf("n=%d kind=%d", n, kind)
			gp, gs := DominantPeriod(xs)
			wp, ws := refDominantPeriod(xs)
			if gp != wp || math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("%s: (%d, %v), reference (%d, %v)", name, gp, gs, wp, ws)
			}
			got, gerr := PowerSpectrum(xs)
			want, werr := refPowerSpectrum(xs)
			if gerr != nil || werr != nil || !sameBits(got, want) {
				t.Fatalf("%s: spectrum %v (%v), reference %v (%v)", name, got, gerr, want, werr)
			}
			if wp > 0 {
				periodic++
			}
			if kind == 3 {
				constant++
			}
		}
	}
	if periodic == 0 || constant == 0 {
		t.Errorf("corpus lacks periodic (%d) or constant (%d) series", periodic, constant)
	}
	for _, xs := range [][]float64{nil, {1}, {1, 2, 3}} {
		gp, gs := DominantPeriod(xs)
		wp, ws := refDominantPeriod(xs)
		if gp != wp || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Errorf("len %d: (%d, %v), reference (%d, %v)", len(xs), gp, gs, wp, ws)
		}
	}
	if _, err := PowerSpectrum(nil); !sameErr(err, func() error { _, e := refPowerSpectrum(nil); return e }()) {
		t.Errorf("empty spectrum error %v differs from the reference", err)
	}
}
