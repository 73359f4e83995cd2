package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"virtover/internal/simrand"
)

// Bit-identity gate for the QR factor/solve split: OLS, qrSolve, FactorOLS
// and BootstrapOLS must reproduce the reference implementations in
// reference_test.go bit for bit (math.Float64bits), over a seeded corpus
// of designs with 0 to 4 feature columns, 8 to 600 rows (powers of two
// and not, so Intn's rejection path runs), constant columns (rank
// deficient designs: OLS's ridge fallback) and sparse 0/1 columns
// (resamples that miss every 1 are rank deficient: the per-replicate
// fallback).

// bitIdentCase is one seeded regression problem of the corpus.
type bitIdentCase struct {
	name      string
	xs        [][]float64
	ys        []float64
	intercept bool
	b         int
	conf      float64
	seed      int64
}

// Column kinds of a generated design.
const (
	colNormal   = iota // centred noise
	colOffset          // large offset, small spread: poorly conditioned
	colSparse          // 0/1 with two or three 1s
	colConstant        // the same value in every row
	numColKinds
)

var bitIdentRows = []int{8, 9, 12, 17, 31, 50, 64, 99, 127, 128, 200, 255, 333, 511, 512, 600}

// genBitIdentCase builds case i of the corpus. kinds fixes the column
// kinds; nil draws them.
func genBitIdentCase(i int, kinds []int) bitIdentCase {
	r := rand.New(rand.NewSource(int64(1000 + i)))
	p := i % 5
	if kinds != nil {
		p = len(kinds)
	}
	n := bitIdentRows[r.Intn(len(bitIdentRows))]
	if n < 2*(p+1) {
		n = 2 * (p + 1)
	}
	c := bitIdentCase{
		intercept: p == 0 || i%7 != 3,
		b:         []int{0, 20, 37, 100}[r.Intn(4)],
		conf:      []float64{0.8, 0.9, 0.95}[r.Intn(3)],
		seed:      r.Int63(),
	}
	colKinds := make([]int, p)
	for j := range colKinds {
		if kinds != nil {
			colKinds[j] = kinds[j]
		} else {
			colKinds[j] = r.Intn(numColKinds)
		}
	}
	coef := make([]float64, p)
	for j := range coef {
		coef[j] = r.NormFloat64() * 3
	}
	noise := 0.0
	if i%5 != 4 {
		noise = math.Abs(r.NormFloat64()) + 0.1
	}
	c.xs = make([][]float64, n)
	c.ys = make([]float64, n)
	for row := 0; row < n; row++ {
		x := make([]float64, p)
		y := 2.5 + noise*r.NormFloat64()
		for j := range x {
			switch colKinds[j] {
			case colNormal:
				x[j] = r.NormFloat64() * 10
			case colOffset:
				x[j] = 1000 + r.Float64()
			case colSparse:
				if row%(n/2) == j { // two or three 1s per column
					x[j] = 1
				}
			case colConstant:
				x[j] = 7
			}
			y += coef[j] * x[j]
		}
		c.xs[row], c.ys[row] = x, y
	}
	c.name = fmt.Sprintf("case%d/n%d/p%d/kinds%v/intercept=%v/B%d", i, n, p, colKinds, c.intercept, c.b)
	return c
}

// bitIdentCorpus is the seeded corpus plus two cases pinned to the
// fallback paths and two all-zero targets (+0 and -0), whose sums of
// zero products must keep the reference's sign of zero.
func bitIdentCorpus() []bitIdentCase {
	var out []bitIdentCase
	for i := 0; i < 250; i++ {
		out = append(out, genBitIdentCase(i, nil))
	}
	out = append(out,
		genBitIdentCase(1000, []int{colNormal, colConstant}),
		genBitIdentCase(1001, []int{colSparse, colNormal, colSparse}),
	)
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		c := genBitIdentCase(1002, []int{colNormal, colOffset})
		for i := range c.ys {
			c.ys[i] = zero
		}
		c.name += fmt.Sprintf("/ys=%v", zero)
		out = append(out, c)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func TestOLSBitIdenticalToReference(t *testing.T) {
	var fallbacks int
	for _, c := range bitIdentCorpus() {
		got, gerr := OLS(c.xs, c.ys, c.intercept)
		want, werr := refOLS(c.xs, c.ys, c.intercept)
		if !sameErr(gerr, werr) {
			t.Fatalf("%s: error %v, reference %v", c.name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if !sameBits(got.Coef, want.Coef) ||
			!sameBits([]float64{got.RSS, got.TSS, got.R2, got.MedianSqR}, []float64{want.RSS, want.TSS, want.R2, want.MedianSqR}) ||
			got.N != want.N || got.Intercept != want.Intercept {
			t.Fatalf("%s: fit %+v, reference %+v", c.name, got, want)
		}
		x, err := refDesignMatrix(c.xs, c.intercept)
		if err != nil {
			t.Fatal(err)
		}
		gb, gerr := qrSolve(x, c.ys)
		wb, werr := refQRSolve(x, c.ys)
		if !sameErr(gerr, werr) || !sameBits(gb, wb) {
			t.Fatalf("%s: qrSolve %v (%v), reference %v (%v)", c.name, gb, gerr, wb, werr)
		}
		if werr != nil {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("corpus never took OLS's ridge fallback")
	}
}

// FactorOLS factors a design once for several targets; each must match
// a reference OLS fit of that target alone, and FactorOLS must refuse
// exactly the designs the reference hands to its ridge fallback.
func TestFactorOLSBitIdenticalToReference(t *testing.T) {
	for _, c := range bitIdentCorpus() {
		f, ferr := FactorOLS(c.xs, c.intercept)
		x, err := refDesignMatrix(c.xs, c.intercept)
		if err != nil {
			t.Fatal(err)
		}
		if _, qerr := refQRSolve(x, c.ys); qerr != nil {
			if ferr == nil {
				t.Fatalf("%s: FactorOLS accepted a design the reference solves by ridge (%v)", c.name, qerr)
			}
			continue
		}
		if ferr != nil {
			t.Fatalf("%s: %v", c.name, ferr)
		}
		other := make([]float64, len(c.ys))
		for i, y := range c.ys {
			other[i] = -3*y + float64(i%5)
		}
		for k, ys := range [][]float64{c.ys, other} {
			want, err := refOLS(c.xs, ys, c.intercept)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(want.Coef))
			if err := f.Solve(ys, got); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want.Coef) {
				t.Fatalf("%s: target %d: %v, reference %v", c.name, k, got, want.Coef)
			}
		}
		if err := f.Solve(c.ys[1:], make([]float64, x.Cols)); err == nil {
			t.Fatalf("%s: Solve accepted %d targets for %d rows", c.name, len(c.ys)-1, len(c.ys))
		}
	}
}

func TestBootstrapOLSBitIdenticalToReference(t *testing.T) {
	for _, c := range bitIdentCorpus() {
		got, gerr := BootstrapOLS(c.xs, c.ys, c.intercept, c.b, c.conf, c.seed)
		want, werr := refBootstrapOLS(c.xs, c.ys, c.intercept, c.b, c.conf, c.seed)
		if !sameErr(gerr, werr) {
			t.Fatalf("%s: error %v, reference %v", c.name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if !sameBits(got.Point, want.Point) || !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) ||
			math.Float64bits(got.Conf) != math.Float64bits(want.Conf) || got.B != want.B {
			t.Fatalf("%s:\n got  %+v\n want %+v", c.name, got, want)
		}
	}
}

// The pinned sparse case must actually send replicates down the
// fallback: replay its resample stream and count the resamples in which
// a sparse column is all zero.
func TestBitIdentCorpusHitsReplicateFallback(t *testing.T) {
	c := genBitIdentCase(1001, []int{colSparse, colNormal, colSparse})
	b := c.b
	if b <= 0 {
		b = 200
	}
	n := len(c.xs)
	rng := simrand.New(c.seed)
	var degenerate int
	for rep := 0; rep < b; rep++ {
		var ones int
		for i := 0; i < n; i++ {
			ones += int(c.xs[rng.Intn(n)][0])
		}
		if ones == 0 {
			degenerate++
		}
	}
	if degenerate == 0 {
		t.Fatalf("%s: no rank-deficient resample among %d replicates", c.name, b)
	}
}
