package sim

import (
	"math"
)

// RNG is a deterministic pseudo-random number generator with support for
// deriving independent named sub-streams. The core generator is
// splitmix64, which is small, fast, passes BigCrush when used this way,
// and — critically for reproducibility — has no global state.
//
// RNG is not safe for concurrent use; simulations are single-threaded.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	// Avoid the all-zero fixed point and decorrelate small seeds.
	r := &RNG{state: seed ^ 0x9e3779b97f4a7c15}
	r.Uint64()
	return r
}

// Stream derives an independent generator identified by name. The same
// (parent seed, name) always yields the same stream, and distinct names
// yield decorrelated streams. The parent's state is not consumed, so the
// order in which streams are created does not matter.
func (r *RNG) Stream(name string) *RNG {
	h := fnv64(name)
	//detlint:allow seedrule Stream IS the (seed, name) derivation rule the analyzer roots everything else in
	return NewRNG(r.state ^ h ^ 0x2545f4914f6cdd1d)
}

// SeedFor derives an independent seed from a parent seed and a name. It
// is the standalone form of the (seed, name) stream-derivation rule that
// RNG.Stream applies inside an engine: the same (seed, name) pair always
// yields the same derived seed, and distinct names yield decorrelated
// seeds. Batch runners use it to give each named job its own RNG root so
// results depend only on (seed, job name) — never on worker count,
// scheduling, or completion order.
func SeedFor(seed uint64, name string) uint64 {
	// xor the name hash into the seed, then run one splitmix64 round so
	// related (seed, name) pairs land far apart.
	z := seed ^ fnv64(name) ^ 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64 is the FNV-1a hash, inlined to avoid an import cycle with hash/fnv
// allocations in hot paths.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed sample with the given mean.
// It panics if mean is not positive.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, using the polar Box–Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a Pareto(shape alpha, scale xm) sample: heavy-tailed
// sizes such as uploaded files and video segments. Panics if alpha or xm
// is not positive.
func (r *RNG) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("sim: Pareto with non-positive parameter")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// ZipfGen samples from a Zipf distribution over [1, n] with exponent s,
// precomputing the normalization so repeated draws are O(log n).
type ZipfGen struct {
	rng *RNG
	cdf []float64
}

// NewZipfGen builds a Zipf sampler. It panics if n <= 0 or s <= 0.
func NewZipfGen(rng *RNG, n int, s float64) *ZipfGen {
	if n <= 0 || s <= 0 {
		panic("sim: NewZipfGen with non-positive parameter")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfGen{rng: rng, cdf: cdf}
}

// Sample draws one value in [1, n].
func (z *ZipfGen) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Pick returns a uniformly chosen index weighted by weights. Zero or
// negative total weight panics.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("sim: Pick with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("sim: Pick with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
