// Package randx provides a small, deterministic random toolkit used by the
// world generator and the simulated services.
//
// Everything in flock must be reproducible from a single 64-bit seed: the
// same seed yields byte-identical worlds, datasets and reports. To that end
// randx wraps a splitmix64 core (fast, well distributed, trivially
// splittable) and layers the distributions the generative model needs:
// Zipf (instance popularity), Poisson (post counts), lognormal (follower
// counts), Bernoulli and weighted choice.
//
// The package deliberately does not use math/rand's global state; each
// Source is an independent value and Sources can be split hierarchically
// (world -> per-user -> per-day) so that adding users does not perturb the
// random streams of existing ones.
package randx

import (
	"math"
)

// Source is a deterministic pseudo-random source based on splitmix64.
// The zero value is a valid source seeded with 0, but callers normally use
// New or Split.
type Source struct {
	state    uint64
	spare    float64 // cached second normal variate from Box-Muller
	hasSpare bool
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden gamma used by splitmix64.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child source from this source and a label.
// Splitting is stable: the same (state-at-call, label) pair always yields
// the same child. Use distinct labels for distinct sub-streams.
func (s *Source) Split(label string) *Source {
	h := s.Uint64()
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	return &Source{state: h}
}

// SplitN derives an independent child source keyed by an integer, useful
// for per-entity streams (user i, instance j).
func (s *Source) SplitN(label string, n int) *Source {
	c := s.Split(label)
	c.state ^= uint64(n) * gamma
	c.Uint64() // burn one to decorrelate adjacent n
	return c
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("randx: Int63n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. It consumes two uniforms per pair of calls.
func (s *Source) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.hasSpare = true
	return u * f
}

// LogNormal returns a lognormal variate with the given location mu and
// scale sigma (parameters of the underlying normal).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Exp returns an exponential variate with rate lambda (> 0).
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("randx: Exp with non-positive lambda")
	}
	return -math.Log(1-s.Float64()) / lambda
}

// Poisson returns a Poisson variate with the given mean. For small means
// it uses Knuth's product method; for large means a normal approximation
// with continuity correction (adequate for workload generation).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
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
	v := mean + math.Sqrt(mean)*s.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples ranks in [0, n) following a Zipf distribution with exponent
// alpha > 0: P(rank k) proportional to 1/(k+1)^alpha. It precomputes the
// CDF so sampling is O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), alpha)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank in [0, N()).
func (z *Zipf) Sample(s *Source) int {
	u := s.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Weighted samples indices proportionally to a fixed weight vector.
type Weighted struct {
	cdf []float64
}

// NewWeighted builds a weighted sampler. Weights must be non-negative and
// sum to a positive value.
func NewWeighted(weights []float64) *Weighted {
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("randx: negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("randx: weights sum to zero")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{cdf: cdf}
}

// Sample draws an index proportional to its weight.
func (w *Weighted) Sample(s *Source) int {
	u := s.Float64()
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](s *Source, xs []T) T {
	return xs[s.Intn(len(xs))]
}
