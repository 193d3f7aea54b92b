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
type NHPP struct {
	rng  *RNG
	rate RateFunc
	env  EnvelopeFunc
	now  Time

	proposed uint64
	accepted uint64
}

// NewNHPPEnvelope builds a generator whose thinning bound is the
// piecewise-constant envelope env. Each env segment's max must be a true
// upper bound on rate over that segment (violations silently
// under-generate); segments must advance (until > t) or Next panics.
func NewNHPPEnvelope(rng *RNG, rate RateFunc, env EnvelopeFunc, start Time) *NHPP {
	if rng == nil {
		panic("sim: NewNHPPEnvelope with nil rng")
	}
	if rate == nil {
		panic("sim: NewNHPPEnvelope with nil rate function")
	}
	if env == nil {
		panic("sim: NewNHPPEnvelope with nil envelope")
	}
	return &NHPP{rng: rng, rate: rate, env: env, now: start}
}

// Next returns the next arrival time strictly after the previous one, or
// ok=false if no arrival occurs at or before horizon: the bound is
// closed, so an arrival may fall exactly at horizon. Next evaluates the
// rate at each candidate it proposes, and the last evaluation before it
// returns an arrival is at the arrival's own time.
func (p *NHPP) Next(horizon Time) (t Time, ok bool) {
	for {
		max, until := p.env(p.now)
		if until <= p.now {
			panic("sim: envelope segment does not advance past its query time")
		}
		if max <= 0 {
			// Silent segment: skip it whole, consuming no randomness.
			if until > horizon {
				return 0, false
			}
			p.now = until
			continue
		}
		cand := p.now + Seconds(p.rng.Exp(1/max))
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
		r := p.rate(p.now)
		if r < 0 {
			r = 0
		}
		if r > max {
			r = max
		}
		if p.rng.Float64() < r/max {
			p.accepted++
			return p.now, true
		}
	}
}

// Proposed returns how many candidate arrivals have been drawn (thinning
// attempts, boundary restarts excluded).
func (p *NHPP) Proposed() uint64 { return p.proposed }

// Accepted returns how many candidates survived thinning — the arrivals
// actually emitted. Accepted/Proposed is the thinning acceptance rate;
// a low rate means the envelope is far above the typical rate and the
// generator burns candidates.
func (p *NHPP) Accepted() uint64 { return p.accepted }
