package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"virtover/internal/stats"
	"virtover/internal/units"
)

// Bit-identity gate for factored training and the factored drift
// bootstrap: Train, TrainSingle and CompareOnWindow must reproduce the
// reference implementations in reference_test.go bit for bit
// (math.Float64bits) over a seeded corpus of windows of 8 to 600 samples,
// including constant feature columns (rank-deficient designs take OLS's
// ridge fallback), sparse 0/1 columns and multi-VM sets too small to fit.

// Feature column kinds of a generated window.
const (
	featSpread   = iota // the service's usual spread of utilizations
	featConstant        // one value throughout: collinear with the intercept
	featSparse          // 0 or 1, mostly 0
	featOffset          // large offset, small spread: poorly conditioned
	numFeatKinds
)

var bitIdentSizes = []int{8, 9, 13, 31, 64, 100, 127, 255, 333, 511, 512, 600}

// genWindow draws n samples with N VMs each (N < 2 draws 2..4 per
// sample). Targets are a seeded linear truth plus noise (none when
// noise is 0).
func genWindow(r *rand.Rand, n, vms int, kinds [4]int, noise float64) []Sample {
	var rows [NumTargets]Row
	for t := range rows {
		for j := range rows[t] {
			rows[t][j] = r.Float64() * 2
		}
	}
	out := make([]Sample, n)
	for i := range out {
		var f [4]float64
		for j, k := range kinds {
			switch k {
			case featSpread:
				f[j] = 10 + 500*r.Float64()
			case featConstant:
				f[j] = 42
			case featSparse:
				if r.Intn(n) < 3 {
					f[j] = 1
				}
			case featOffset:
				f[j] = 5000 + r.Float64()
			}
		}
		v := units.V(f[0], f[1], f[2], f[3])
		nv := vms
		if nv < 2 && vms != 1 {
			nv = 2 + r.Intn(3)
		}
		y := func(t Target) float64 { return rows[t].Apply(v) + noise*r.NormFloat64() }
		out[i] = Sample{
			N: nv, VMSum: v,
			Dom0CPU: y(TargetDom0CPU), HypCPU: y(TargetHypCPU),
			PM: units.V(f[0]+1, y(TargetPMMem), y(TargetPMIO), y(TargetPMBW)),
		}
	}
	return out
}

// trainCase is one seeded training problem of the corpus.
type trainCase struct {
	name          string
	single, multi []Sample
	opt           FitOptions
}

func genTrainCase(i int) trainCase {
	r := rand.New(rand.NewSource(int64(500 + i)))
	var kinds [4]int
	for j := range kinds {
		kinds[j] = featSpread
		if r.Intn(3) == 0 {
			kinds[j] = r.Intn(numFeatKinds)
		}
	}
	noise := 0.0
	if i%4 != 0 {
		noise = 0.5 + 3*r.Float64()
	}
	c := trainCase{single: genWindow(r, bitIdentSizes[r.Intn(len(bitIdentSizes))], 1, kinds, noise)}
	switch i % 3 {
	case 1:
		c.multi = genWindow(r, bitIdentSizes[r.Intn(len(bitIdentSizes))], 0, kinds, noise)
	case 2:
		c.multi = genWindow(r, 3+r.Intn(6), 0, kinds, noise) // under 5 rows cannot fit o
	}
	switch i % 10 {
	case 7:
		c.opt = FitOptions{Ridge: 0.5}
	case 9:
		c.opt = FitOptions{Method: MethodLMS, LMS: stats.LMSOptions{Subsamples: 30, Seed: int64(i)}}
	}
	c.name = fmt.Sprintf("case%d/single%d/multi%d/kinds%v/%+v", i, len(c.single), len(c.multi), kinds, c.opt)
	return c
}

func sameRows(a, b [NumTargets]Row) bool {
	for t := range a {
		for j := range a[t] {
			if math.Float64bits(a[t][j]) != math.Float64bits(b[t][j]) {
				return false
			}
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

func TestTrainBitIdenticalToReference(t *testing.T) {
	var fits, errs int
	for i := 0; i < 120; i++ {
		c := genTrainCase(i)
		got, gerr := Train(c.single, c.multi, c.opt)
		want, werr := refTrain(c.single, c.multi, c.opt)
		if !sameErr(gerr, werr) {
			t.Fatalf("%s: error %v, reference %v", c.name, gerr, werr)
		}
		if werr != nil {
			errs++
			continue
		}
		fits++
		if !sameRows(got.A, want.A) || !sameRows(got.O, want.O) || got.HasO != want.HasO {
			t.Fatalf("%s:\n got  %v\n want %v", c.name, got, want)
		}
		gs, gerr := TrainSingle(c.single, c.opt)
		ws, werr := refTrainSingle(c.single, c.opt)
		if !sameErr(gerr, werr) || !sameRows(gs.A, ws.A) {
			t.Fatalf("%s: TrainSingle %v (%v), reference %v (%v)", c.name, gs, gerr, ws, werr)
		}
	}
	if fits == 0 || errs == 0 {
		t.Errorf("corpus covered %d fits and %d errors, want both", fits, errs)
	}
}

func TestCompareOnWindowBitIdenticalToReference(t *testing.T) {
	var swaps, keeps int
	for i := 0; i < 60; i++ {
		r := rand.New(rand.NewSource(int64(900 + i)))
		kinds := [4]int{featSpread, featSpread, featSpread, featSpread}
		if i%5 == 0 {
			kinds[r.Intn(4)] = featSparse
		}
		n := bitIdentSizes[r.Intn(len(bitIdentSizes))]
		window := genWindow(r, n, 1, kinds, 2*r.Float64())
		if i%2 == 1 { // half the windows carry co-located samples
			window = append(window, genWindow(r, n/2+1, 0, kinds, 1)...)
		}
		incumbent, err := Train(genWindow(r, 64, 1, kinds, 1), nil, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		challenger, err := Train(window[:n], nil, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt := DriftOptions{
			B:    []int{0, 50, 200}[r.Intn(3)],
			Conf: []float64{0, 0.8, 0.95}[r.Intn(3)],
			Seed: r.Int63(),
		}
		got, gerr := CompareOnWindow(incumbent, challenger, window, opt)
		want, werr := refCompareOnWindow(incumbent, challenger, window, opt)
		if !sameErr(gerr, werr) {
			t.Fatalf("case %d: error %v, reference %v", i, gerr, werr)
		}
		if werr != nil {
			continue
		}
		bits := func(r *DriftReport) []uint64 {
			var out []uint64
			for _, v := range []float64{r.IncumbentMAE, r.ChallengerMAE, r.MeanDelta, r.Lo, r.Hi, r.Conf} {
				out = append(out, math.Float64bits(v))
			}
			return out
		}
		if fmt.Sprint(bits(got)) != fmt.Sprint(bits(want)) || got.B != want.B || got.Significant != want.Significant {
			t.Fatalf("case %d (n=%d, %+v):\n got  %+v\n want %+v", i, len(window), opt, got, want)
		}
		if got.Significant {
			swaps++
		} else {
			keeps++
		}
	}
	if swaps == 0 || keeps == 0 {
		t.Errorf("corpus made %d swap and %d keep decisions, want both", swaps, keeps)
	}
}

// Allocation pins for a refit's two fitting stages: an allocation per
// bootstrap replicate or per target (a design, a QR copy, diagnostics)
// would multiply a refit's garbage by hundreds.
func TestCompareOnWindowAllocs(t *testing.T) {
	window := driftSamples(driftRows(1), 512, 3)
	incumbent := &Model{A: driftRows(1.01)}
	challenger := &Model{A: driftRows(1)}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := CompareOnWindow(incumbent, challenger, window, DriftOptions{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("CompareOnWindow on 512 samples: %v allocs, want <= 32", allocs)
	}
}

func TestTrainSingleAllocs(t *testing.T) {
	window := driftSamples(driftRows(1), 512, 4)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := TrainSingle(window, FitOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("TrainSingle on 512 samples: %v allocs, want <= 12", allocs)
	}
}

// TestCoefficientCIsMatchesPerTargetBootstrap pins the per-target
// fan-out: each target's interval is stats.BootstrapOLS of that target
// alone on stream seed+t, bit for bit, over windows that take OLS's ridge
// fallback (a constant column) and the per-replicate fallback (a sparse
// column); and a failure reports the lowest failing target whichever
// goroutine fails first.
func TestCoefficientCIsMatchesPerTargetBootstrap(t *testing.T) {
	for i := 0; i < 12; i++ {
		r := rand.New(rand.NewSource(int64(700 + i)))
		var kinds [4]int // featSpread
		switch i % 3 {
		case 1:
			kinds[r.Intn(4)] = featConstant
		case 2:
			kinds[r.Intn(4)] = featSparse
		}
		samples := genWindow(r, bitIdentSizes[r.Intn(len(bitIdentSizes))], 1, kinds, 0.5+3*r.Float64())
		b, conf, seed := 20+r.Intn(80), []float64{0.8, 0.9, 0.95}[r.Intn(3)], r.Int63()
		name := fmt.Sprintf("case%d/n%d/kinds%v/B%d", i, len(samples), kinds, b)
		got, err := CoefficientCIs(samples, b, conf, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		xs := featureRows(samples)
		ys := make([]float64, len(samples))
		for _, tg := range Targets() {
			for j, s := range samples {
				ys[j] = s.target(tg)
			}
			want, err := stats.BootstrapOLS(xs, ys, true, b, conf, seed+int64(tg))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, tg, err)
			}
			g := got[tg]
			if g == nil || !sameBits(g.Point, want.Point) || !sameBits(g.Lo, want.Lo) || !sameBits(g.Hi, want.Hi) ||
				math.Float64bits(g.Conf) != math.Float64bits(want.Conf) || g.B != want.B {
				t.Fatalf("%s/%v:\n got  %+v\n want %+v", name, tg, g, want)
			}
		}
	}

	samples := genWindow(rand.New(rand.NewSource(1)), 64, 1, [4]int{}, 1)
	for _, c := range []struct {
		samples []Sample
		conf    float64
		want    string
	}{
		{samples, 1.5, "core: bootstrap for dom0-cpu: stats: BootstrapOLS confidence 1.5 out of (0,1)"},
		{samples[:3], 0.9, "core: bootstrap for dom0-cpu: stats: OLS needs at least 5 observations, got 3"},
		{nil, 0.9, "core: CoefficientCIs: no samples"},
	} {
		cis, err := CoefficientCIs(c.samples, 50, c.conf, 7)
		if err == nil || err.Error() != c.want {
			t.Errorf("%d samples, conf %v: error %v, want %q", len(c.samples), c.conf, err, c.want)
		}
		if cis != ([NumTargets]*stats.CoefCI{}) {
			t.Errorf("%d samples, conf %v: intervals returned with the error", len(c.samples), c.conf)
		}
	}
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
