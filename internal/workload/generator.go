package workload

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

// Arrival is one generated request arrival.
type Arrival struct {
	// At is the arrival's virtual time.
	At time.Duration
	// Class is the LMS request class.
	Class lms.Class
	// UserID identifies the issuing student in [0, Students).
	UserID int
}

// Config parameterizes a Generator.
type Config struct {
	// Students is the active population size. With Growth set it is the
	// user-ID space instead: zero derives it from Growth.Max(), and an
	// explicit value must be at least that capacity.
	Students int
	// Growth optionally makes the active population a curve (MOOC
	// enrollment): the instantaneous rate scales with Growth.At(t)
	// instead of the constant Students.
	Growth *Growth
	// ReqPerStudentHour is the mean request rate per student during an
	// average hour (the diurnal profile redistributes it within a day).
	// Typical interactive LMS usage is 40-80 requests/student-hour.
	ReqPerStudentHour float64
	// Diurnal shapes the day; defaults to CampusDiurnal.
	Diurnal *DiurnalProfile
	// Calendar shapes the term; nil means every week is Teaching at 1.0.
	Calendar *Calendar
	// Crowds adds exam flash-crowd windows.
	Crowds []FlashCrowd
	// Storms adds deadline storms: asymmetric procrastination ramps
	// that build exponentially toward a submission cliff.
	Storms []DeadlineStorm
	// Joins adds live-session join storms: near-simultaneous arrivals
	// at a lecture start, decaying as stragglers trickle in.
	Joins []JoinStorm
}

// Generator produces a non-homogeneous Poisson stream of LMS arrivals.
type Generator struct {
	cfg         Config
	teachingMix *lms.Mix
	examMix     *lms.Mix
}

// NewGenerator validates cfg and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Growth != nil {
		capacity := int(math.Ceil(cfg.Growth.Max()))
		if cfg.Students == 0 {
			cfg.Students = capacity
		} else if cfg.Students < capacity {
			return nil, fmt.Errorf("workload: Students = %d is below the growth capacity %d", cfg.Students, capacity)
		}
	}
	if cfg.Students <= 0 {
		return nil, fmt.Errorf("workload: Students = %d, need > 0", cfg.Students)
	}
	if !(cfg.ReqPerStudentHour > 0) || math.IsInf(cfg.ReqPerStudentHour, 1) {
		return nil, fmt.Errorf("workload: ReqPerStudentHour = %v, need a finite value > 0", cfg.ReqPerStudentHour)
	}
	for _, c := range cfg.Crowds {
		if err := c.sanity(); err != nil {
			return nil, err
		}
	}
	for _, s := range cfg.Storms {
		if err := s.sanity(); err != nil {
			return nil, err
		}
	}
	for _, j := range cfg.Joins {
		if err := j.sanity(); err != nil {
			return nil, err
		}
	}
	if cfg.Diurnal == nil {
		cfg.Diurnal = CampusDiurnal()
	}
	return &Generator{cfg: cfg, teachingMix: lms.TeachingMix(), examMix: lms.ExamMix()}, nil
}

// Population returns the active population at t: Growth.At(t) when a
// growth curve is set, the constant Students otherwise.
func (g *Generator) Population(t time.Duration) float64 {
	if g.cfg.Growth != nil {
		return g.cfg.Growth.At(t)
	}
	return float64(g.cfg.Students)
}

// usersOf returns the user-ID range of an active population pop: at
// least 1, and at most Students.
func (g *Generator) usersOf(pop float64) int {
	if g.cfg.Growth == nil {
		return g.cfg.Students
	}
	n := int(math.Ceil(pop))
	if n < 1 {
		n = 1
	}
	if n > g.cfg.Students {
		n = g.cfg.Students
	}
	return n
}

// users returns the user-ID range active at t, at least 1.
func (g *Generator) users(t time.Duration) int {
	return g.usersOf(g.Population(t))
}

// Rate returns the instantaneous aggregate arrival rate (req/s) at t.
func (g *Generator) Rate(t time.Duration) float64 {
	rate, _ := g.rateAt(t)
	return rate
}

// rateAt returns the instantaneous aggregate arrival rate (req/s) at t
// and the active population it scaled, so a caller that also needs the
// population at t does not compute it twice.
func (g *Generator) rateAt(t time.Duration) (rate, pop float64) {
	pop = g.Population(t)
	base := pop * g.cfg.ReqPerStudentHour / 3600
	rate = base * g.cfg.Diurnal.At(t)
	if g.cfg.Calendar != nil {
		rate *= g.cfg.Calendar.WeekAt(t).Mult
	}
	for _, c := range g.cfg.Crowds {
		if c.Active(t) {
			rate *= c.Mult
		}
	}
	for _, s := range g.cfg.Storms {
		rate *= s.MultAt(t)
	}
	for _, j := range g.cfg.Joins {
		rate *= j.MultAt(t)
	}
	return rate, pop
}

// MaxRate returns a global upper bound on Rate over any horizon. It
// sizes peak fleets; the thinning sampler uses the tighter piecewise
// Envelope instead, because on growth curves the global bound is far
// above the early rate. Rate multiplies every simultaneously-active
// window, so the bound compounds the peaks of windows that actually
// overlap — a join storm inside a deadline ramp really does stack —
// while disjoint windows contribute only the largest single peak.
func (g *Generator) MaxRate() float64 {
	pop := float64(g.cfg.Students)
	if g.cfg.Growth != nil {
		pop = g.cfg.Growth.Max()
	}
	base := pop * g.cfg.ReqPerStudentHour / 3600
	max := base * g.cfg.Diurnal.Peak()
	if g.cfg.Calendar != nil {
		max *= g.cfg.Calendar.PeakMult()
	}
	return max * g.windowPeakBound()
}

// windowPeakBound bounds the product of simultaneously-active window
// multipliers (crowds, storms, joins) over all time. The active set
// only changes at window edges, and every maximal active set is live
// just inside some window's start — so evaluating the product of the
// peaks of the windows active at each start covers every combination
// that can occur, without compounding windows that never overlap.
func (g *Generator) windowPeakBound() float64 {
	type window struct {
		start, end time.Duration
		peak       float64
	}
	var wins []window
	for _, c := range g.cfg.Crowds {
		if c.Mult > 1 {
			wins = append(wins, window{c.Start, c.End, c.Mult})
		}
	}
	for _, s := range g.cfg.Storms {
		if s.PeakMult > 1 {
			wins = append(wins, window{s.Deadline - s.Ramp, s.Deadline, s.PeakMult})
		}
	}
	for _, j := range g.cfg.Joins {
		if j.PeakMult > 1 {
			wins = append(wins, window{j.Start, j.Start + j.Window, j.PeakMult})
		}
	}
	best := 1.0
	for _, w := range wins {
		product := 1.0
		for _, o := range wins {
			if w.start >= o.start && w.start < o.end {
				product *= o.peak
			}
		}
		if product > best {
			best = product
		}
	}
	return best
}

// MixAt returns the request mix in force at time t: the exam mix inside
// exam weeks, exam flash crowds and exam-flagged storms, the teaching
// mix otherwise.
func (g *Generator) MixAt(t time.Duration) *lms.Mix {
	for _, c := range g.cfg.Crowds {
		if c.Active(t) && c.ExamTraffic {
			return g.examMix
		}
	}
	for _, s := range g.cfg.Storms {
		if s.Active(t) && s.ExamTraffic {
			return g.examMix
		}
	}
	for _, j := range g.cfg.Joins {
		if j.Active(t) && j.ExamTraffic {
			return g.examMix
		}
	}
	if g.cfg.Calendar != nil && g.cfg.Calendar.WeekAt(t).Kind == Exams {
		return g.examMix
	}
	return g.teachingMix
}

// Envelope returns the piecewise-constant thinning bound the generator
// samples under. For stationary-bound configs (no growth, no storms)
// it is a single segment at MaxRate — byte-identical behavior to the
// flat sampler. For MOOC shapes it re-bounds every hour (every minute
// inside an active storm window, where the multiplier moves on minute
// scales), using monotonicity of the growth curve and the storm shapes,
// so thinning acceptance stays high while the population grows 10x.
//
// The returned function keeps its current segment's fixed factors (see
// envSegment) and recomputes them only when a query falls outside that
// segment, so a query costs the diurnal value at t and the join-storm
// bounds, whatever order the queries come in. Each call returns its own
// function; one function must not be shared across goroutines.
func (g *Generator) Envelope() sim.EnvelopeFunc {
	if g.cfg.Growth == nil && len(g.cfg.Storms) == 0 && len(g.cfg.Joins) == 0 {
		return sim.ConstantEnvelope(g.MaxRate())
	}
	var seg envSegment // zero: [0, 0) holds no query
	return func(t sim.Time) (float64, sim.Time) {
		if t < seg.start || t >= seg.until {
			seg = g.segment(t, g.segmentEnd(t))
		}
		return g.segmentBound(&seg, t), seg.until
	}
}

// segmentEnd returns the end of the envelope segment starting at t:
// the next hour mark, tightened around shape edges so a bound never
// straddles a window boundary loosely, and re-bounded minute-by-minute
// while an exponential storm shape is actually moving.
func (g *Generator) segmentEnd(t time.Duration) time.Duration {
	until := t - t%time.Hour + time.Hour
	clampEdge := func(edge time.Duration) {
		if edge > t && edge < until {
			until = edge
		}
	}
	storming := false
	for _, c := range g.cfg.Crowds {
		clampEdge(c.Start)
		clampEdge(c.End)
	}
	for _, s := range g.cfg.Storms {
		clampEdge(s.Deadline - s.Ramp)
		clampEdge(s.Deadline)
		storming = storming || s.Active(t)
	}
	for _, j := range g.cfg.Joins {
		clampEdge(j.Start)
		clampEdge(j.Start + j.Window)
		storming = storming || j.Active(t)
	}
	if storming {
		if minuteEnd := t - t%time.Minute + time.Minute; minuteEnd < until {
			until = minuteEnd
		}
	}
	return until
}

// envSegment holds the factors of the envelope bound over a segment
// [start, until) that do not depend on where in the segment the bound is
// read. They are fixed because no segment straddles a window edge, an
// hour mark or, while a storm is active, a minute mark (segmentEnd): a
// crowd's Active state and the calendar week hold across the segment,
// and a deadline storm's bound reads only the end of its overlap. Two
// factors do move with t, so segmentBound computes them per query: the
// diurnal value at t, and each join storm's bound, since a join storm
// decays after its start.
type envSegment struct {
	start, until time.Duration
	// base is the population at until × ReqPerStudentHour / 3600: the
	// growth curve is monotone, so the segment's largest population is
	// at its end.
	base float64
	// diurnalEnd is Diurnal.At(until). Diurnal is linear between hour
	// anchors and the segment never crosses one, so the larger of its
	// values at t and at until bounds it over [t, until).
	diurnalEnd float64
	// week is the calendar multiplier (1 without a calendar).
	week float64
	// crowdStorm is the product of the crowd and deadline-storm bounds.
	crowdStorm float64
}

// segment computes the fixed factors of the envelope bound over
// [t, until).
func (g *Generator) segment(t, until time.Duration) envSegment {
	pop := float64(g.cfg.Students)
	if g.cfg.Growth != nil {
		pop = g.cfg.Growth.At(until)
	}
	seg := envSegment{
		start:      t,
		until:      until,
		base:       pop * g.cfg.ReqPerStudentHour / 3600,
		diurnalEnd: g.cfg.Diurnal.At(until),
		week:       1,
		crowdStorm: 1,
	}
	if g.cfg.Calendar != nil {
		// Week boundaries fall on hour marks, never inside [t, until).
		seg.week = g.cfg.Calendar.WeekAt(t).Mult
	}
	for _, c := range g.cfg.Crowds {
		if c.Active(t) && c.Mult > 1 {
			seg.crowdStorm *= c.Mult
		}
	}
	for _, s := range g.cfg.Storms {
		seg.crowdStorm *= s.MaxOn(t, until)
	}
	return seg
}

// segmentBound returns the envelope's rate bound over [t, seg.until)
// for t in seg: the quiet bound (population, diurnal shape and
// calendar) scaled by the burst multiplier bound.
func (g *Generator) segmentBound(seg *envSegment, t time.Duration) float64 {
	quiet := seg.base * math.Max(g.cfg.Diurnal.At(t), seg.diurnalEnd) * seg.week
	return quiet * g.burstMult(seg, t)
}

// burstMult bounds the product of crowd/storm/join multipliers over
// [t, seg.until) — the factor by which the segment's bound exceeds its
// quiet baseline. This is the quantity the hybrid fidelity planner
// classifies on: a segment is "bursty" exactly when burstMult clears
// the intensity threshold.
func (g *Generator) burstMult(seg *envSegment, t time.Duration) float64 {
	mult := seg.crowdStorm
	for _, j := range g.cfg.Joins {
		mult *= j.MaxOn(t, seg.until)
	}
	return mult
}

// Generate produces arrivals on [start, horizon] in time order, invoking
// fn for each, and returns the count. It drives the same stream as
// Stream, so identical (rng state, config) produce identical arrivals
// either way.
func (g *Generator) Generate(rng *sim.RNG, start, horizon time.Duration, fn func(Arrival)) int {
	s := g.Stream(rng, start)
	n := 0
	for {
		a, ok := s.Next(horizon)
		if !ok {
			return n
		}
		fn(a)
		n++
	}
}

// ArrivalStream produces arrivals one at a time, so simulations can
// schedule lazily instead of materializing millions of events up front.
type ArrivalStream struct {
	gen      *Generator
	proc     *sim.NHPP
	classRNG *sim.RNG
	userRNG  *sim.RNG
	// rateAt is the stream's rate and the population it scaled: the
	// generator's, or a shard's.
	rateAt func(t time.Duration) (rate, pop float64)
	// shard, for one shard's stream, holds the users it draws from;
	// nil draws from the whole active population.
	shard *ShardGen
	// pop is the population at the last rate evaluation. The sampler
	// evaluates the rate last at the candidate it accepts, so once Next
	// has an arrival, pop is the population at the arrival's time.
	pop float64
}

// Stream returns a lazy arrival stream starting at start.
func (g *Generator) Stream(rng *sim.RNG, start time.Duration) *ArrivalStream {
	return newStream(g, g.rateAt, g.Envelope(), nil, rng, start)
}

// newStream wires an arrival stream over rateAt and env: shard's when
// shard is non-nil, the whole generator's otherwise.
func newStream(g *Generator, rateAt func(time.Duration) (float64, float64), env sim.EnvelopeFunc, shard *ShardGen, rng *sim.RNG, start time.Duration) *ArrivalStream {
	s := &ArrivalStream{
		gen:      g,
		classRNG: rng.Stream("classes"),
		userRNG:  rng.Stream("users"),
		rateAt:   rateAt,
		shard:    shard,
	}
	s.proc = sim.NewNHPPEnvelope(rng.Stream("arrivals"), s.rate, env, start)
	return s
}

// rate is the sampler's rate function: it records the population it
// scaled for the user draw.
func (s *ArrivalStream) rate(t time.Duration) float64 {
	r, pop := s.rateAt(t)
	s.pop = pop
	return r
}

// Next returns the next arrival at or before horizon, or ok=false. An
// arrival may fall exactly at horizon.
func (s *ArrivalStream) Next(horizon time.Duration) (Arrival, bool) {
	t, ok := s.proc.Next(horizon)
	if !ok {
		return Arrival{}, false
	}
	return Arrival{
		At:     t,
		Class:  s.gen.MixAt(t).Sample(s.classRNG),
		UserID: s.user(),
	}, true
}

// user draws the arrival's user uniformly from the population active at
// its time: the whole user-ID range, or a shard's members below it. At
// K=1 members[i] == i, so a shard draw consumes the RNG and yields the
// same value as the unsharded one.
func (s *ArrivalStream) user() int {
	n := s.gen.usersOf(s.pop)
	if s.shard == nil {
		return s.userRNG.Intn(n)
	}
	return s.shard.members[s.userRNG.Intn(s.shard.active(n))]
}

// Thinning reports the stream's sampler efficiency so far: candidate
// arrivals proposed and accepted. Accepted/proposed near 1 means the
// piecewise envelope hugs the rate; the MOOC shapes are benchmarked to
// stay at or above ~50% (see BenchmarkMOOCAcceptance).
func (s *ArrivalStream) Thinning() (proposed, accepted uint64) {
	return s.proc.Proposed(), s.proc.Accepted()
}
