// Package rng provides deterministic pseudo-random number generation for
// the culinary analysis pipeline.
//
// Every stochastic component of the library (null models, corpus
// generation, bootstrap resampling) draws from an explicit *rng.Source so
// that experiments are exactly reproducible from a seed. The generator is
// a 64-bit permuted congruential generator (PCG-XSL-RR 128/64 reduced to
// a 64-bit state variant) with an odd stream increment, which makes
// sources cheaply splittable: deriving a child source with a distinct
// stream yields an independent sequence, allowing parallel experiment
// arms to share one master seed without correlation.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator.
//
// The zero value is not usable; construct with New or Split. Source is
// not safe for concurrent use; split one child per goroutine instead.
type Source struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// Multiplier from PCG reference implementation (Melissa O'Neill).
const pcgMult = 6364136223846793005

// defaultStream is the stream used by New; any odd constant works.
const defaultStream = 1442695040888963407

// New returns a Source seeded with seed on the default stream.
func New(seed uint64) *Source {
	return NewStream(seed, defaultStream>>1)
}

// NewStream returns a Source seeded with seed on the given stream.
// Distinct streams produce statistically independent sequences even for
// identical seeds.
func NewStream(seed, stream uint64) *Source {
	s := &Source{inc: stream<<1 | 1}
	// Standard PCG initialization: advance once, add seed, advance again.
	s.state = 0
	s.next()
	s.state += seed
	s.next()
	return s
}

// Split derives a child Source whose stream is a function of label. The
// child is independent of the parent and of children with other labels.
// Splitting does not consume randomness from the parent, so the parent's
// sequence is unaffected.
func (s *Source) Split(label uint64) *Source {
	// Mix the parent identity and the label through SplitMix64 finalizer
	// to choose the child's seed and stream.
	mix := func(z uint64) uint64 {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	seed := mix(s.state ^ label)
	stream := mix(s.inc + label*2 + 1)
	return NewStream(seed, stream)
}

// next advances the state and returns the previous state permuted.
func (s *Source) next() uint64 {
	old := s.state
	s.state = old*pcgMult + s.inc
	// XSL-RR output permutation on 64-bit state.
	xored := (old >> 32) ^ (old & 0xffffffff) ^ (old >> 18)
	rot := uint(old >> 59)
	return bits.RotateLeft64(xored*0x2545f4914f6cdd1d, -int(rot))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.next() }

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 { return uint32(s.next() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method: multiply-high with rejection on the low word.
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			// Box-Muller polar transform.
			f := sqrt(-2 * ln(q) / q)
			return u * f
		}
	}
}

// Poisson returns a Poisson-distributed variate with the given mean.
// For small means it uses Knuth's product method; for large means a
// normal approximation with continuity correction, which is adequate for
// the recipe-size models in this library.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + sqrt(mean)*s.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles an int slice in place (Fisher-Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n). It panics if k > n or k < 0. For small k relative to n it
// uses rejection from a set; otherwise a partial Fisher-Yates.
func (s *Source) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*4 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.Intn(n)
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }
func exp(x float64) float64  { return math.Exp(x) }
