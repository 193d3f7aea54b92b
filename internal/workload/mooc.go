package workload

// This file holds the MOOC-scale workload family: nonstationary shapes
// for courses whose population, daily rhythm and stress events do not
// fit a single campus — enrollment growth curves, timezone-superposed
// diurnal waves, and deadline/join storms. They compose with the
// existing NHPP machinery through Generator.Envelope's piecewise
// thinning bound, which is what keeps generation O(arrivals) when the
// final population is 10x the first week's.

import (
	"fmt"
	"math"
	"time"
)

// Growth is a monotone nondecreasing active-population curve: the
// number of enrolled-and-active students at each virtual time. It
// replaces the constant Config.Students for courses that grow —
// monotonicity is what lets the piecewise thinning envelope bound a
// segment by its endpoint instead of scanning it.
type Growth struct {
	kind  growthKind
	start float64 // population at t = 0
	final float64 // population approached (logistic) or reached (linear)
	mid   time.Duration
	k     float64 // logistic steepness, 1/seconds
	ramp  time.Duration
}

type growthKind int

const (
	logisticGrowth growthKind = iota + 1
	linearGrowth
)

// LogisticGrowth models a "viral course": enrollment starts at start,
// accelerates through the inflection at midpoint, and saturates at
// capacity. The steepness is derived from requiring the curve to pass
// through start at t = 0, so the two populations and the midpoint fully
// determine the shape. The midpoint is where enrollment crosses half
// the capacity, so a monotone-increasing curve needs
// start < capacity/2 — LogisticGrowth panics otherwise (a start at or
// above capacity/2 would make the derived steepness zero or negative
// and the curve flat or decaying, silently breaking the monotonicity
// the piecewise envelope depends on). Panics unless
// 0 < start < capacity/2 and midpoint > 0.
func LogisticGrowth(start, capacity int, midpoint time.Duration) *Growth {
	if start <= 0 || 2*start >= capacity {
		panic(fmt.Sprintf("workload: LogisticGrowth needs 0 < start < capacity/2 (the midpoint is the half-capacity crossing), got %d, %d", start, capacity))
	}
	if midpoint <= 0 {
		panic("workload: LogisticGrowth needs a positive midpoint")
	}
	// Solve capacity/(1+exp(k·mid)) = start for k.
	k := math.Log(float64(capacity)/float64(start)-1) / midpoint.Seconds()
	return &Growth{kind: logisticGrowth, start: float64(start), final: float64(capacity), mid: midpoint, k: k}
}

// LinearGrowth models a cohort ramp: enrollment climbs linearly from
// start to final over ramp, then holds. Panics unless
// 0 < start <= final and ramp > 0.
func LinearGrowth(start, final int, ramp time.Duration) *Growth {
	if start <= 0 || final < start {
		panic(fmt.Sprintf("workload: LinearGrowth needs 0 < start <= final, got %d, %d", start, final))
	}
	if ramp <= 0 {
		panic("workload: LinearGrowth needs a positive ramp")
	}
	return &Growth{kind: linearGrowth, start: float64(start), final: float64(final), ramp: ramp}
}

// At returns the active population at t. The curve is monotone
// nondecreasing; t < 0 is clamped to the initial population.
func (g *Growth) At(t time.Duration) float64 {
	if t < 0 {
		t = 0
	}
	switch g.kind {
	case logisticGrowth:
		return g.final / (1 + math.Exp(-g.k*(t-g.mid).Seconds()))
	case linearGrowth:
		if t >= g.ramp {
			return g.final
		}
		return g.start + (g.final-g.start)*float64(t)/float64(g.ramp)
	default:
		panic("workload: zero-value Growth; use LogisticGrowth or LinearGrowth")
	}
}

// Max returns the curve's supremum — the capacity (logistic) or final
// (linear) population. It bounds every At value and is Config.Students
// when that is derived.
func (g *Growth) Max() float64 { return g.final }

// String renders the curve for experiment notes.
func (g *Growth) String() string {
	switch g.kind {
	case logisticGrowth:
		return fmt.Sprintf("logistic %.0f→%.0f (midpoint %v)", g.start, g.final, g.mid)
	case linearGrowth:
		return fmt.Sprintf("linear %.0f→%.0f over %v", g.start, g.final, g.ramp)
	default:
		return "Growth(zero)"
	}
}

// TimezoneWave is one regional cohort of a global course: a fraction of
// the population whose local day is shifted against the simulation
// clock.
type TimezoneWave struct {
	// Shift is how far east of the reference clock the cohort lives:
	// its local time of day is the simulation time of day plus Shift.
	Shift time.Duration
	// Weight is the cohort's share of the population; weights are
	// normalized over the superposition, so any positive scale works.
	Weight float64
	// Profile is the cohort's local day shape (nil = CampusDiurnal).
	Profile *DiurnalProfile
}

// SuperposeTimezones builds the day shape of a multi-timezone cohort:
// the weight-normalized sum of each wave's profile evaluated at its
// local time. The result is an ordinary DiurnalProfile — it plugs into
// Config.Diurnal and composes with calendars, crowds and storms — whose
// peak is flatter and wider than any single region's, because the
// regions' evening peaks do not line up. Panics on an empty wave list,
// a negative weight, or a non-positive total weight.
func SuperposeTimezones(waves []TimezoneWave) *DiurnalProfile {
	if len(waves) == 0 {
		panic("workload: SuperposeTimezones with no waves")
	}
	total := 0.0
	for i, w := range waves {
		if w.Weight < 0 {
			panic(fmt.Sprintf("workload: timezone wave %d has negative weight", i))
		}
		total += w.Weight
	}
	if total <= 0 {
		panic("workload: timezone waves have non-positive total weight")
	}
	var hours [24]float64
	for h := 0; h < 24; h++ {
		sum := 0.0
		for _, w := range waves {
			p := w.Profile
			if p == nil {
				p = CampusDiurnal()
			}
			sum += w.Weight * p.At(time.Duration(h)*time.Hour+w.Shift)
		}
		hours[h] = sum / total
	}
	return NewDiurnalProfile(hours)
}

// GlobalCohort is the default worldwide MOOC day: four regional bands
// (Americas, Europe/Africa, South Asia, East Asia/Pacific) each living
// a CampusDiurnal day in their own timezone, weighted by typical MOOC
// enrollment shares. The superposition flattens the campus profile's
// 2.0x evening peak to under 1.6x and fills the overnight trough — the
// reason a global course loads its fleet around the clock rather than
// in one evening wave.
func GlobalCohort() *DiurnalProfile {
	return SuperposeTimezones([]TimezoneWave{
		{Shift: -5 * time.Hour, Weight: 0.30},               // Americas
		{Shift: 1 * time.Hour, Weight: 0.30},                // Europe/Africa
		{Shift: 5*time.Hour + 30*time.Minute, Weight: 0.20}, // South Asia
		{Shift: 8 * time.Hour, Weight: 0.20},                // East Asia/Pacific
	})
}

// DeadlineStorm is the procrastination shape of a graded deadline: load
// builds up exponentially as the deadline approaches — slowly at first,
// steeply in the final hours — and falls off a cliff the moment it
// passes. It multiplies the base rate inside [Deadline-Ramp, Deadline).
type DeadlineStorm struct {
	// Deadline is the submission cutoff (the cliff).
	Deadline time.Duration
	// Ramp is how long before the deadline the build-up is felt.
	Ramp time.Duration
	// PeakMult is the rate multiplier approached at the deadline.
	PeakMult float64
	// Tau is the e-folding time of the build-up: the multiplier excess
	// halves every ~0.69·Tau walking back from the deadline. Zero
	// defaults to Ramp/3.
	Tau time.Duration
	// ExamTraffic switches the request mix to ExamMix inside the ramp —
	// deadline traffic is submissions and graded quizzes, not browsing.
	ExamTraffic bool
}

// tau returns the effective e-folding time.
func (s DeadlineStorm) tau() time.Duration {
	if s.Tau > 0 {
		return s.Tau
	}
	return s.Ramp / 3
}

// Active reports whether t is inside the build-up window.
func (s DeadlineStorm) Active(t time.Duration) bool {
	return t >= s.Deadline-s.Ramp && t < s.Deadline
}

// MultAt returns the rate multiplier at t: 1 outside the window,
// 1 + (PeakMult-1)·exp(-(Deadline-t)/Tau) inside.
func (s DeadlineStorm) MultAt(t time.Duration) float64 {
	if !s.Active(t) {
		return 1
	}
	return s.shape(t)
}

// shape returns the build-up's value at t, ignoring the window:
// increasing in t, and PeakMult at the deadline.
func (s DeadlineStorm) shape(t time.Duration) float64 {
	return 1 + (s.PeakMult-1)*math.Exp(-(s.Deadline-t).Seconds()/s.tau().Seconds())
}

// MaxOn returns an upper bound on MultAt over [t0, t1). The build-up is
// monotone increasing toward the deadline, so the bound is the value at
// the overlap's end.
func (s DeadlineStorm) MaxOn(t0, t1 time.Duration) float64 {
	lo, hi := s.Deadline-s.Ramp, s.Deadline
	if t0 > lo {
		lo = t0
	}
	if t1 < hi {
		hi = t1
	}
	if hi <= lo {
		return 1
	}
	// Limit value approaching hi from below; at hi == Deadline this is
	// PeakMult, a valid (if momentarily loose) bound across the cliff.
	return s.shape(hi)
}

// sanity validates a storm definition.
func (s DeadlineStorm) sanity() error {
	if s.Ramp <= 0 {
		return fmt.Errorf("workload: deadline storm ramp %v must be positive", s.Ramp)
	}
	if s.Deadline < s.Ramp {
		return fmt.Errorf("workload: deadline storm at %v starts before t=0 (ramp %v)", s.Deadline, s.Ramp)
	}
	if !(s.PeakMult >= 1) || math.IsInf(s.PeakMult, 1) {
		return fmt.Errorf("workload: deadline storm PeakMult = %v, need a finite value >= 1", s.PeakMult)
	}
	if s.Tau < 0 {
		return fmt.Errorf("workload: deadline storm tau %v must not be negative", s.Tau)
	}
	if s.tau() == 0 {
		return fmt.Errorf("workload: deadline storm ramp %v is too short to derive a tau (Ramp/3 is 0); set Tau", s.Ramp)
	}
	return nil
}

// JoinStorm is the live-session shape: a cohort joins a scheduled
// lecture nearly simultaneously, so the rate spikes at Start and decays
// exponentially as stragglers trickle in. It multiplies the base rate
// inside [Start, Start+Window).
type JoinStorm struct {
	// Start is the lecture start, where the spike peaks.
	Start time.Duration
	// Window is how long the join wave lasts.
	Window time.Duration
	// PeakMult is the rate multiplier at Start.
	PeakMult float64
	// Decay is the e-folding time of the rush (zero defaults to
	// Window/4).
	Decay time.Duration
	// ExamTraffic switches the request mix to ExamMix inside the
	// window — live sessions are auth-heavy, graded-interaction
	// traffic, not casual browsing.
	ExamTraffic bool
}

// decay returns the effective e-folding time.
func (j JoinStorm) decay() time.Duration {
	if j.Decay > 0 {
		return j.Decay
	}
	return j.Window / 4
}

// Active reports whether t is inside the join window.
func (j JoinStorm) Active(t time.Duration) bool {
	return t >= j.Start && t < j.Start+j.Window
}

// MultAt returns the rate multiplier at t: 1 outside the window,
// 1 + (PeakMult-1)·exp(-(t-Start)/Decay) inside.
func (j JoinStorm) MultAt(t time.Duration) float64 {
	if !j.Active(t) {
		return 1
	}
	return j.shape(t)
}

// shape returns the spike's value at t, ignoring the window: PeakMult
// at Start, decreasing after it.
func (j JoinStorm) shape(t time.Duration) float64 {
	return 1 + (j.PeakMult-1)*math.Exp(-(t-j.Start).Seconds()/j.decay().Seconds())
}

// MaxOn returns an upper bound on MultAt over [t0, t1). The spike is
// monotone decreasing after Start, so the bound is the value at the
// overlap's beginning.
func (j JoinStorm) MaxOn(t0, t1 time.Duration) float64 {
	lo, hi := j.Start, j.Start+j.Window
	if t0 > lo {
		lo = t0
	}
	if t1 < hi {
		hi = t1
	}
	if hi <= lo {
		return 1
	}
	return j.shape(lo)
}

// sanity validates a join storm definition.
func (j JoinStorm) sanity() error {
	if j.Window <= 0 {
		return fmt.Errorf("workload: join storm window %v must be positive", j.Window)
	}
	if j.Start < 0 {
		return fmt.Errorf("workload: join storm start %v must not be negative", j.Start)
	}
	if !(j.PeakMult >= 1) || math.IsInf(j.PeakMult, 1) {
		return fmt.Errorf("workload: join storm PeakMult = %v, need a finite value >= 1", j.PeakMult)
	}
	if j.Decay < 0 {
		return fmt.Errorf("workload: join storm decay %v must not be negative", j.Decay)
	}
	if j.decay() == 0 {
		return fmt.Errorf("workload: join storm window %v is too short to derive a decay (Window/4 is 0); set Decay", j.Window)
	}
	return nil
}
