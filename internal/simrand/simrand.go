// Package simrand provides the deterministic randomness used by the
// simulator and experiment harness.
//
// All stochastic behaviour in the reproduction — workload jitter, measurement
// noise injected by the emulated monitoring tools, placement shuffles — flows
// through a *Source seeded explicitly by the caller, so every experiment is
// reproducible bit-for-bit given its seed. Nothing in this module reads the
// wall clock.
//
// The generator is a copy of the one behind math/rand.NewSource (rng.go,
// under the Go project's BSD license, reproduced there), so a Source emits
// exactly the stream rand.New(rand.NewSource(seed)) emits: every seed
// recorded in this repository keeps its meaning. Intn, Int63, Float64 and
// the distributions built on them run on the concrete generator with
// math/rand's arithmetic; NormFloat64, ExpFloat64, Perm and Shuffle run
// math/rand's own code over the same generator. The generator counts its
// raw draws, so State{Seed, Draws} describes a Source completely, as it
// always has: snapshot hashes and journals that record it are unchanged.
package simrand

import "math/rand"

// State is a serializable snapshot of a Source: the seed it was created
// with and the number of raw draws consumed since. SetState rebuilds the
// exact generator state from it (see Source.State).
type State struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// Source is a seeded random source with the distributions the simulator
// needs. It is not safe for concurrent use; give each goroutine its own
// Source via Split.
type Source struct {
	src  rngSource
	rng  *rand.Rand // over &src, for the distributions math/rand computes
	seed int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.src.Seed(seed)
	s.rng = rand.New(&s.src)
	return s
}

// State captures the source's current state for a later SetState. The
// snapshot is O(1); SetState replays the recorded number of raw draws, so
// restoring a long-lived source costs time linear in its history.
func (s *Source) State() State {
	return State{Seed: s.seed, Draws: s.src.draws}
}

// SetState rewinds the source in place to a captured state: it then emits
// the same continuation stream, bit for bit, without allocating. A source
// already on the target seed and at or behind the target position just
// skips raw draws forward: every distribution method bottoms out in counted
// generator reads, so (seed, draws) pins the stream exactly, and the
// expensive re-seed can be skipped. That is the fork layer's hot path —
// freshly rebuilt sources arrive here seeded and at draw zero. Otherwise
// the generator is re-seeded first.
func (s *Source) SetState(st State) {
	if s.seed != st.Seed || s.src.draws > st.Draws {
		s.seed = st.Seed
		s.src.Seed(st.Seed)
	}
	s.src.advance(st.Draws - s.src.draws)
}

// Split derives an independent child source. The child's stream is a pure
// function of the parent's state at the time of the call, preserving
// determinism while decoupling consumption orders.
func (s *Source) Split() *Source {
	return New(s.src.Int63())
}

// Float64 returns a uniform sample in [0,1).
func (s *Source) Float64() float64 {
again:
	f := float64(s.src.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample, as math/rand does; taken O(never)
	}
	return f
}

// Intn returns a uniform sample in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is math/rand's Int31n: a mask for a power of two, otherwise
// rejection of the top partial interval, then a modulus.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.src.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.src.Int63() >> 32)
	for v > max {
		v = int32(s.src.Int63() >> 32)
	}
	return v % n
}

// int63n is math/rand's Int63n, the path Intn takes above 2^31-1.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.src.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.src.Int63()
	for v > max {
		v = s.src.Int63()
	}
	return v % n
}

// FillIntn sets dst[i] to the i-th of len(dst) successive Intn(n) draws:
// the same values, and the same stream position afterwards, as calling
// Intn len(dst) times. It panics if n <= 0. It steps the generator in runs
// between the wrap-arounds of its ring indices, so a batch of resampling
// indices (the bootstrap's) costs a fraction of as many Intn calls.
func (s *Source) FillIntn(dst []int, n int) {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > int32max {
		for i := range dst {
			dst[i] = int(s.int63n(int64(n)))
		}
		return
	}
	n32 := int32(n)
	pow2 := n32&(n32-1) == 0
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n32)) // Int31n's rejection bound
	g := &s.src
	for i := 0; i < len(dst); {
		// The next k draws read vec[tap-k:tap] and update vec[feed-k:feed]
		// from the top down, with no wrap-around; each yields at most one
		// output, so k never overshoots dst.
		if g.tap == 0 {
			g.tap = rngLen
		}
		if g.feed == 0 {
			g.feed = rngLen
		}
		k := min(g.tap, g.feed, len(dst)-i)
		fv := g.vec[g.feed-k : g.feed]
		tv := g.vec[g.tap-k : g.tap]
		tv = tv[:len(fv)]
		for j := len(fv) - 1; j >= 0; j-- {
			x := fv[j] + tv[j]
			fv[j] = x
			v := int32(uint64(x) & rngMask >> 32) // Int31
			switch {
			case pow2:
				dst[i] = int(v & (n32 - 1))
				i++
			case v <= max:
				dst[i] = int(v % n32)
				i++
			}
		}
		g.tap -= k
		g.feed -= k
		g.draws += uint64(k)
	}
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.src.Int63() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation. A non-positive sigma returns mean exactly (useful for switching
// noise off in tests).
func (s *Source) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.rng.NormFloat64()
}

// NormFloat64 returns a standard-normal sample. It consumes the stream
// exactly as Normal and Jitter do, so callers may pre-draw a batch of
// normals and apply them later without changing the sequence.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// Jitter returns x perturbed by multiplicative Gaussian noise:
// x * (1 + N(0, rel)). rel <= 0 returns x unchanged.
func (s *Source) Jitter(x, rel float64) float64 {
	if rel <= 0 {
		return x
	}
	return x * (1 + rel*s.rng.NormFloat64())
}

// Uniform returns a uniform sample in [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("simrand: Uniform with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Exponential returns a sample from an exponential distribution with the
// given mean. A non-positive mean returns 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
