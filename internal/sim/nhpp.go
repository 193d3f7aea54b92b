package sim

import "math"

// RateFunc gives an instantaneous arrival rate (events per second) at a
// virtual time. Rates must be non-negative and bounded by the envelope
// passed to the generator.
type RateFunc func(t Time) float64

// MaxTime is the largest representable virtual time; an envelope segment
// reaching MaxTime holds for the rest of the run.
const MaxTime = Time(math.MaxInt64)

// EnvelopeFunc reports the thinning bound in force at t: max is an upper
// bound on the rate over [t, until), and until (> t) is where the bound
// may change. A segment with max = 0 is silent — no arrivals can occur
// in it — and is skipped without consuming randomness. Returning
// until = MaxTime means the bound holds forever, which is the
// homogeneous (single-segment) case.
//
// A piecewise envelope is what keeps thinning O(arrivals) on
// nonstationary workloads: a single global bound over, say, an
// enrollment-growth curve would be sized for the final population and
// reject almost every early candidate, while a piecewise bound stays
// close to the local rate everywhere.
type EnvelopeFunc func(t Time) (max float64, until Time)

// BracketFunc reports a bracket lo <= rate(t) <= hi around the rate at
// a candidate time t, where rate is the RateFunc it travels with. The
// bracket must hold for the rate as computed, rounding included: the
// sampler settles a candidate from it without evaluating the rate, so a
// bracket that misses the rate changes which candidates are accepted.
// A trivial bracket (0, +Inf) settles nothing.
type BracketFunc func(t Time) (lo, hi float64)

// ConstantEnvelope wraps a single global bound as an EnvelopeFunc.
func ConstantEnvelope(max float64) EnvelopeFunc {
	return func(Time) (float64, Time) { return max, MaxTime }
}

// NHPP generates arrival times from a non-homogeneous Poisson process by
// Lewis–Shedler thinning: candidate arrivals are drawn from a Poisson
// process at the envelope bound and accepted with probability
// rate(t)/bound. With a piecewise envelope the candidate process
// restarts at each segment boundary (valid by memorylessness), so the
// bound tracks the local rate instead of the global peak.
//
// Each candidate's acceptance is a squeeze: the uniform u is compared
// with the bracket's lo/bound and hi/bound first, and the rate is
// evaluated only when u falls between them. The rate draws no
// randomness and the bracket holds the rate, so the squeeze accepts
// exactly the candidates that comparing u with rate(t)/bound would.
type NHPP struct {
	rng     *RNG
	rate    RateFunc
	env     EnvelopeFunc
	bracket BracketFunc
	now     Time

	proposed  uint64
	accepted  uint64
	evaluated uint64
}

// NewNHPPEnvelope builds a generator whose thinning bound is the
// piecewise-constant envelope env and whose acceptance test is
// squeezed by bracket. Each env segment's max must be a true upper
// bound on rate over that segment (violations silently
// under-generate); segments must advance (until > t) or Next panics.
func NewNHPPEnvelope(rng *RNG, rate RateFunc, env EnvelopeFunc, bracket BracketFunc, start Time) *NHPP {
	if rng == nil {
		panic("sim: NewNHPPEnvelope with nil rng")
	}
	if rate == nil {
		panic("sim: NewNHPPEnvelope with nil rate function")
	}
	if env == nil {
		panic("sim: NewNHPPEnvelope with nil envelope")
	}
	if bracket == nil {
		panic("sim: NewNHPPEnvelope with nil bracket")
	}
	return &NHPP{rng: rng, rate: rate, env: env, bracket: bracket, now: start}
}

// Next returns the next arrival time strictly after the previous one, or
// ok=false if no arrival occurs at or before horizon: the bound is
// closed, so an arrival may fall exactly at horizon. Next draws each
// candidate's acceptance uniform before it consults the bracket, and
// evaluates the rate only at the candidates the bracket leaves
// undecided.
func (p *NHPP) Next(horizon Time) (t Time, ok bool) {
	for {
		bound, until := p.env(p.now)
		if until <= p.now {
			panic("sim: envelope segment does not advance past its query time")
		}
		if bound <= 0 {
			// Silent segment: skip it whole, consuming no randomness.
			if until > horizon {
				return 0, false
			}
			p.now = until
			continue
		}
		cand := p.now + Seconds(p.rng.Exp(1/bound))
		if cand >= until {
			// The candidate crossed into the next segment, where the
			// bound differs. By memorylessness the candidate process can
			// simply restart at the boundary under the new bound.
			if until > horizon {
				return 0, false
			}
			p.now = until
			continue
		}
		p.now = cand
		if p.now > horizon {
			return 0, false
		}
		p.proposed++
		u := p.rng.Float64()
		lo, hi := p.bracket(p.now)
		// Each test settles a candidate only when it holds, so a NaN
		// bound settles nothing.
		if !(u < lo/bound) {
			if u >= hi/bound {
				continue
			}
			// The bracket leaves u undecided: compare it with the rate,
			// clamped to [0, bound].
			p.evaluated++
			r := p.rate(p.now)
			if r < 0 {
				r = 0
			}
			if r > bound {
				r = bound
			}
			if !(u < r/bound) {
				continue
			}
		}
		p.accepted++
		return p.now, true
	}
}

// Counts returns how many candidate arrivals have been drawn (thinning
// attempts, boundary restarts excluded), how many were accepted — the
// arrivals actually emitted — and at how many the rate was evaluated.
// accepted/proposed is the thinning acceptance rate: a low rate means
// the envelope is far above the typical rate and the generator burns
// candidates. evaluated/proposed is the share of candidates the
// bracket left undecided.
func (p *NHPP) Counts() (proposed, accepted, evaluated uint64) {
	return p.proposed, p.accepted, p.evaluated
}
