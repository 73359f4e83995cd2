package simrand

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// countedRef is the reference the stream contract is stated against:
// math/rand's own generator, with raw draws counted at the Source64 level
// (where every rand.Rand method bottoms out), so a Source's State.Draws can
// be checked as well as its values.
type countedRef struct {
	src   rand.Source64
	draws uint64
}

func newCountedRef(seed int64) *countedRef {
	return &countedRef{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countedRef) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countedRef) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countedRef) Seed(seed int64) { c.draws = 0; c.src.Seed(seed) }

// streamSeeds returns the seeds the stream test covers: edge cases of the
// seeding reduction modulo 2^31-1 (zero, negatives, multiples of the
// modulus, the extremes of int64, the value zero is replaced by) and 1,000
// spread over the whole int64 range.
func streamSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42, -42, 89482311,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max * int32max,
		int32max - 1, int32max + 1, 1 << 31, -(1 << 31), 1 << 62,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1000; i++ { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64(z^z>>31))
	}
	return seeds
}

// intnBounds are the Intn arguments the stream test draws at: 1, powers of
// two (Int31n's mask path), non-powers including ones that reject about
// half their draws (2^30+1, 3·2^29), and values above 2^31-1 (Int63n's
// mask, rejection and modulus paths).
var intnBounds = []int64{
	1, 2, 3, 7, 10, 16, 17, 100, 512, 1000, 1 << 16, 1 << 30,
	1<<30 + 1, 3 << 29, int32max, 1 << 31, 1<<31 + 1, 1 << 40,
	1<<62 + 1, 3 << 61, math.MaxInt64,
}

// streamChecker drives a Source and a math/rand reference through the same
// calls and fails on the first difference in values or draw count.
type streamChecker struct {
	t    *testing.T
	seed int64
	s    *Source
	ref  *countedRef
	r    *rand.Rand
}

func (c *streamChecker) eq(op string, got, want any) {
	c.t.Helper()
	if !reflect.DeepEqual(got, want) {
		c.t.Fatalf("seed %d: %s = %v, want %v", c.seed, op, got, want)
	}
	if d := c.s.State().Draws; d != c.ref.draws {
		c.t.Fatalf("seed %d: after %s Draws = %d, math/rand took %d", c.seed, op, d, c.ref.draws)
	}
}

// round runs every Source method once (Intn once per bound) and returns
// how many of the Intn(2^30+1) draws had to reject.
func (c *streamChecker) round() (rejects int) {
	s, r := c.s, c.r
	c.eq("Int63", s.Int63(), r.Int63())
	c.eq("Float64", s.Float64(), r.Float64())
	for _, n := range intnBounds {
		if n > math.MaxInt {
			continue
		}
		before := c.ref.draws
		c.eq("Intn", s.Intn(int(n)), r.Intn(int(n)))
		if n == 1<<30+1 && c.ref.draws-before > 1 {
			rejects++
		}
	}
	c.eq("Normal", s.Normal(2, 0.5), 2+0.5*r.NormFloat64())
	c.eq("NormFloat64", s.NormFloat64(), r.NormFloat64())
	c.eq("Jitter", s.Jitter(100, 0.03), 100*(1+0.03*r.NormFloat64()))
	c.eq("Exponential", s.Exponential(3), r.ExpFloat64()*3)
	c.eq("Uniform", s.Uniform(-1, 5), -1+6*r.Float64())
	c.eq("Bernoulli", s.Bernoulli(0.3), r.Float64() < 0.3)
	c.eq("Perm", s.Perm(9), r.Perm(9))
	got, want := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
	s.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	r.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	c.eq("Shuffle", got, want)

	// Batched draws interleave with single ones: same values, same
	// stream position. The long batch spans several wrap-arounds of the
	// generator's ring indices.
	for _, b := range []struct {
		n    int64
		size int
	}{{512, 1300}, {1000, 37}, {1<<30 + 1, 37}, {1<<31 + 1, 37}} {
		n := b.n
		if n > math.MaxInt {
			continue
		}
		dst := make([]int, b.size)
		s.FillIntn(dst, int(n))
		want := make([]int, len(dst))
		for i := range want {
			want[i] = r.Intn(int(n))
		}
		c.eq("FillIntn", dst, want)
		c.eq("Intn", s.Intn(int(n)), r.Intn(int(n)))
	}
	s.FillIntn(nil, 5)
	c.eq("FillIntn(nil) then Int63", s.Int63(), r.Int63())

	// A split child is seeded from the parent's next Int63.
	child, refChild := s.Split(), rand.New(rand.NewSource(r.Int63()))
	c.eq("Split", s.Int63(), r.Int63())
	for i := 0; i < 3; i++ {
		if a, b := child.Int63(), refChild.Int63(); a != b {
			c.t.Fatalf("seed %d: split child draw %d = %d, want %d", c.seed, i, a, b)
		}
	}
	return rejects
}

// TestStreamMatchesMathRand is the stream contract (make determinism): for
// every seed and every method a Source emits exactly what
// rand.New(rand.NewSource(seed)) emits, and State().Draws counts exactly
// the raw draws math/rand took.
func TestStreamMatchesMathRand(t *testing.T) {
	rejects := 0
	for _, seed := range streamSeeds() {
		ref := newCountedRef(seed)
		c := &streamChecker{t: t, seed: seed, s: New(seed), ref: ref, r: rand.New(ref)}
		for i := 0; i < 3; i++ {
			rejects += c.round()
		}
	}
	if rejects == 0 {
		t.Fatal("no Intn(2^30+1) draw took the rejection path")
	}
}

// TestSetStateContinuation checks that (seed, draws) pins the stream: a
// source restored by SetState — from another seed (re-seed), from the same
// seed at draw zero (skip forward) and from the same seed past the target
// (re-seed, then skip) — continues exactly as a math/rand generator that
// skipped State().Draws raw draws.
func TestSetStateContinuation(t *testing.T) {
	for _, seed := range streamSeeds()[:200] {
		s := New(seed)
		ref := newCountedRef(seed)
		(&streamChecker{t: t, seed: seed, s: s, ref: ref, r: rand.New(ref)}).round()
		st := s.State()

		ahead := New(seed)
		ahead.FillIntn(make([]int, st.Draws+3), 1<<20)
		for _, r := range []*Source{New(seed ^ 0x5555), New(seed), ahead} {
			r.SetState(st)
			want := newCountedRef(seed)
			for i := uint64(0); i < st.Draws; i++ {
				want.Int63()
			}
			want.draws = st.Draws
			c := &streamChecker{t: t, seed: seed, s: r, ref: want, r: rand.New(want)}
			c.round()
		}
	}
}

// schrage is math/rand's seedrand: x·48271 mod (2^31−1) by Schrage's
// method.
func schrage(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedrandMatchesSchrage checks the Mersenne-reduction seedrand
// against Schrage's form on every input it can see, 1 to 2^31−2, split
// into one contiguous range per GOMAXPROCS.
func TestSeedrandMatchesSchrage(t *testing.T) {
	workers := int64(runtime.GOMAXPROCS(0))
	bad := make([]int32, workers) // first mismatching input per range, or 0
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			lo, hi := 1+w*(int32max-1)/workers, 1+(w+1)*(int32max-1)/workers
			for x := int32(lo); int64(x) < hi; x++ {
				if seedrand(x) != schrage(x) {
					bad[w] = x
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, x := range bad {
		if x != 0 {
			t.Fatalf("seedrand(%d) = %d, want %d", x, seedrand(x), schrage(x))
		}
	}
}

func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(int64(i))
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Intn(1000)
	}
}

func BenchmarkFillIntn(b *testing.B) {
	s := New(1)
	dst := make([]int, 512)
	for i := 0; i < b.N; i++ {
		s.FillIntn(dst, 1000)
	}
}

func BenchmarkFillIntnPow2(b *testing.B) {
	s := New(1)
	dst := make([]int, 512)
	for i := 0; i < b.N; i++ {
		s.FillIntn(dst, 512)
	}
}
