package simrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child must be deterministic given parent state.
	parent2 := New(7)
	child2 := parent2.Split()
	for i := 0; i < 20; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatalf("Split not deterministic at draw %d", i)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(123)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := s.Normal(10, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

func TestNormalZeroSigma(t *testing.T) {
	s := New(1)
	if got := s.Normal(5, 0); got != 5 {
		t.Errorf("Normal(5,0) = %v, want exactly 5", got)
	}
	if got := s.Normal(5, -1); got != 5 {
		t.Errorf("Normal(5,-1) = %v, want exactly 5", got)
	}
}

func TestJitter(t *testing.T) {
	s := New(9)
	if got := s.Jitter(3, 0); got != 3 {
		t.Errorf("Jitter(3,0) = %v, want exactly 3", got)
	}
	// Mean of jittered values approximates x.
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Jitter(3, 0.05)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.01 {
		t.Errorf("Jitter mean = %v, want ~3", mean)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(2, 4)
		if x < 2 || x >= 4 {
			t.Fatalf("Uniform(2,4) = %v out of range", x)
		}
	}
}

func TestUniformPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(4,2) did not panic")
		}
	}()
	New(1).Uniform(4, 2)
}

func TestExponential(t *testing.T) {
	s := New(11)
	if got := s.Exponential(0); got != 0 {
		t.Errorf("Exponential(0) = %v, want 0", got)
	}
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(3)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Errorf("Exponential mean = %v, want ~3", mean)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(13)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v, want ~0.3", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(21)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(31)
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestIntnAndInt63(t *testing.T) {
	s := New(41)
	for i := 0; i < 100; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63() = %d negative", v)
		}
	}
}

// TestStateRestore captures a source mid-stream across a mix of
// distributions (normals consume a variable number of raw draws, so the
// counter must sit below the distribution layer) and checks the restored
// source continues bit-identically.
func TestStateRestore(t *testing.T) {
	s := New(7)
	for i := 0; i < 257; i++ {
		s.Float64()
		s.NormFloat64()
		s.Exponential(3)
		s.Intn(17)
	}
	st := s.State()
	r := New(1)
	r.SetState(st)
	for i := 0; i < 500; i++ {
		if a, b := s.NormFloat64(), r.NormFloat64(); a != b {
			t.Fatalf("restored stream diverges at continuation draw %d: %v vs %v", i, a, b)
		}
		if a, b := s.Jitter(100, 0.01), r.Jitter(100, 0.01); a != b {
			t.Fatalf("restored Jitter diverges at draw %d", i)
		}
	}
}

// TestStateFreshSource checks the zero-draw state restores to a fresh
// generator.
func TestStateFreshSource(t *testing.T) {
	st := New(99).State()
	if st.Seed != 99 || st.Draws != 0 {
		t.Fatalf("fresh state = %+v, want {99 0}", st)
	}
	r := New(5)
	r.SetState(st)
	if a, b := r.Float64(), New(99).Float64(); a != b {
		t.Fatal("restored fresh source diverges from New")
	}
}
