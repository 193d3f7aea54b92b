package scale

// This file holds the forecasting policies: GrowthFit, which estimates
// the enrollment/demand curve online from its own windowed arrival-rate
// observations and provisions ahead of the projected cliff, and Oracle,
// which is handed the true curve and provisions from it — the upper
// bound any estimator can be judged against.

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/sim"
)

// FitShape identifies the growth family the online fitter chose.
type FitShape int

// Fit shapes, mirroring workload's Growth constructors.
const (
	// FitNone means no model has cleared the residual threshold yet.
	FitNone FitShape = iota
	// FitLinear is a cohort ramp: rate(t) = Start + Slope·t.
	FitLinear
	// FitLogistic is a viral course: rate(t) = Final/(1+exp(-K(t-mid))).
	FitLogistic
)

// String names the shape for reports.
func (s FitShape) String() string {
	switch s {
	case FitLinear:
		return "linear"
	case FitLogistic:
		return "logistic"
	default:
		return "none"
	}
}

// FitReport is the fitter's current estimate: the chosen shape, its
// parameters in rate space (requests/second), and the goodness of fit.
type FitReport struct {
	// Shape is the chosen model (FitNone until a fit stabilizes).
	Shape FitShape
	// Start is the fitted rate at the window's origin; Final is the
	// projected plateau (logistic) — zero for linear fits.
	Start, Final float64
	// Slope is the linear model's rate increase per second (zero for
	// logistic fits).
	Slope float64
	// Midpoint is the fitted half-capacity crossing, measured from the
	// observation origin (logistic only).
	Midpoint time.Duration
	// K is the logistic steepness in 1/seconds.
	K float64
	// Residual is the RMS residual of the chosen fit, relative to the
	// window's mean observed rate.
	Residual float64
	// Observations is how many windowed samples the fit saw.
	Observations int
	// Stable reports whether the fit cleared the residual threshold with
	// enough observations to act on.
	Stable bool
}

// Rate evaluates the fitted model at t seconds past the observation
// origin (negative values clamp to the curve's left limit).
func (f FitReport) Rate(t float64) float64 {
	switch f.Shape {
	case FitLinear:
		r := f.Start + f.Slope*t
		if r < 0 {
			return 0
		}
		return r
	case FitLogistic:
		return f.Final / (1 + math.Exp(-f.K*(t-f.Midpoint.Seconds())))
	default:
		return 0
	}
}

// String renders the fit for experiment notes.
func (f FitReport) String() string {
	switch f.Shape {
	case FitLinear:
		return fmt.Sprintf("linear rate %.3f+%.6f/s (residual %.3f)", f.Start, f.Slope, f.Residual)
	case FitLogistic:
		return fmt.Sprintf("logistic rate →%.3f (midpoint %v, residual %.3f)", f.Final, f.Midpoint.Round(time.Second), f.Residual)
	default:
		return "no fit"
	}
}

// ArrivalMeter is an optional Target refinement: a cumulative count of
// request submissions at the fleet, accepted or rejected, counted once
// at submission time. When the target provides it, GrowthFit differences
// the counter into its rate observations — a signal that stays honest
// under saturation, where Little's law on the in-flight count divides
// queue depth by service time and overestimates the offered rate by the
// queue length. The count must be monotone: implementations should keep
// a dedicated counter rather than derive it from served/rejected/active
// sums, which dip while retired servers drain their in-flight jobs.
type ArrivalMeter interface {
	// Arrivals returns the cumulative submission count (monotone).
	Arrivals() uint64
}

// logisticCapGrid is the candidate-plateau search grid, as multiples of
// the largest observed rate. The logit transform below is linear in t
// once the plateau is fixed, so the one nonlinear parameter is searched
// and the rest solved in closed form — deterministic, no iterative
// optimizer to seed.
var logisticCapGrid = []float64{
	1.02, 1.05, 1.1, 1.15, 1.25, 1.4, 1.6, 2, 2.5, 3, 4, 6, 8, 12, 16,
}

// FitGrowth least-squares-fits rate observations against the two
// workload.Growth families and returns the better model by relative RMS
// residual. times are seconds (monotone increasing), rates the observed
// arrival rates at those instants. Exported so the property tests can
// drive the fitter on NHPP-sampled series without an engine.
func FitGrowth(times, rates []float64) FitReport {
	n := len(times)
	if n != len(rates) || n < 3 {
		return FitReport{Observations: n, Residual: math.Inf(1)}
	}
	mean := 0.0
	for _, y := range rates {
		mean += y
	}
	mean /= float64(n)
	if mean <= 0 {
		return FitReport{Observations: n, Residual: math.Inf(1)}
	}

	lin := fitLinear(times, rates, mean)
	log := fitLogistic(times, rates, mean)
	best := lin
	if log.Residual < lin.Residual {
		best = log
	}
	best.Observations = n
	return best
}

// fitLinear is closed-form OLS of rate on time.
func fitLinear(times, rates []float64, mean float64) FitReport {
	n := float64(len(times))
	var st, sy, stt, sty float64
	for i, t := range times {
		st += t
		sy += rates[i]
		stt += t * t
		sty += t * rates[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return FitReport{Residual: math.Inf(1)}
	}
	slope := (n*sty - st*sy) / den
	intercept := (sy - slope*st) / n
	rep := FitReport{Shape: FitLinear, Start: intercept, Slope: slope}
	rep.Residual = relResidual(times, rates, mean, rep)
	return rep
}

// fitLogistic grid-searches the plateau and solves the rest by OLS on
// the logit transform: with L fixed, ln(y/(L-y)) = K·(t-mid) is linear
// in t. Only growing fits (K > 0) are admitted — the fitter models
// enrollment curves, which never shrink.
func fitLogistic(times, rates []float64, mean float64) FitReport {
	ymax := 0.0
	for _, y := range rates {
		if y > ymax {
			ymax = y
		}
	}
	if ymax <= 0 {
		return FitReport{Residual: math.Inf(1)}
	}
	best := FitReport{Residual: math.Inf(1)}
	for _, c := range logisticCapGrid {
		L := ymax * c
		n := 0.0
		var st, sz, stt, stz float64
		for i, y := range rates {
			if y <= 0 || y >= L {
				continue
			}
			z := math.Log(y / (L - y))
			t := times[i]
			n++
			st += t
			sz += z
			stt += t * t
			stz += t * z
		}
		if n < 3 {
			continue
		}
		den := n*stt - st*st
		if den == 0 {
			continue
		}
		k := (n*stz - st*sz) / den
		if k <= 0 {
			continue
		}
		mid := -((sz - k*st) / n) / k
		rep := FitReport{
			Shape:    FitLogistic,
			Start:    L / (1 + math.Exp(k*mid)),
			Final:    L,
			Midpoint: time.Duration(mid * float64(time.Second)),
			K:        k,
		}
		rep.Residual = relResidual(times, rates, mean, rep)
		if rep.Residual < best.Residual {
			best = rep
		}
	}
	return best
}

// relResidual is the RMS residual of the model over the observations,
// normalized by the window's mean rate.
func relResidual(times, rates []float64, mean float64, f FitReport) float64 {
	sum := 0.0
	for i, t := range times {
		d := rates[i] - f.Rate(t)
		sum += d * d
	}
	return math.Sqrt(sum/float64(len(times))) / mean
}

// The growth fitter retains fitWindow observations, enough history to
// separate a logistic knee from a line. A fit is stable, and acted on,
// once it rests on at least fitMinObservations of them and its relative
// RMS residual is at most fitMaxResidual; until then the scaler stays
// reactive.
const (
	fitWindow          = 45
	fitMinObservations = 10
	fitMaxResidual     = 0.15
)

// GrowthFitConfig parameterizes the growth-fitting scaler.
type GrowthFitConfig struct {
	// Interval between observations (default 1 minute).
	Interval time.Duration
	// Lead is how far ahead to provision — one VM boot plus a guard
	// margin, so capacity is running before the projected demand lands
	// (default 8 minutes).
	Lead time.Duration
	// MeanService converts observed in-flight demand to an arrival rate
	// via Little's law, and a projected rate to servers through
	// deploy.ServersForPeak (seconds; required, no useful default
	// exists — zero panics in NewGrowthFit).
	MeanService float64
	// Min/Max fleet bounds.
	Min, Max int
	// Fallback parameterizes the reactive behavior used until the fit
	// stabilizes; its Interval/Min/Max are overridden to match.
	Fallback ReactiveConfig
}

func (c *GrowthFitConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.Lead <= 0 {
		c.Lead = 8 * time.Minute
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	c.Fallback.Interval = c.Interval
	c.Fallback.Min = c.Min
	c.Fallback.Max = c.Max
}

// GrowthFit estimates the demand curve online — least squares over a
// window of its own arrival-rate observations against the logistic and
// linear growth shapes, model chosen by residual — and provisions ahead
// of the projected cliff. Until the fit stabilizes (enough observations,
// residual under threshold) it behaves exactly as Reactive, so a
// workload the models cannot describe costs nothing over the classic
// control loop.
type GrowthFit struct {
	target   Target
	cfg      GrowthFitConfig
	fallback *Reactive

	times, rates []float64
	lastCount    uint64
	fit          FitReport
	stable       FitReport
}

// NewGrowthFit builds a growth-fitting scaler around target.
func NewGrowthFit(target Target, cfg GrowthFitConfig) *GrowthFit {
	if target == nil {
		panic("scale: NewGrowthFit with nil target")
	}
	if cfg.MeanService <= 0 {
		panic("scale: NewGrowthFit needs a positive MeanService to convert load to arrival rate")
	}
	cfg.defaults()
	return &GrowthFit{
		target:   target,
		cfg:      cfg,
		fallback: NewReactive(target, cfg.Fallback),
	}
}

// Name implements Autoscaler.
func (g *GrowthFit) Name() string { return "growth-fit" }

// Fit returns the current fit report (shape, parameters, residual) for
// tests and experiment notes.
func (g *GrowthFit) Fit() FitReport { return g.fit }

// LastStable returns the most recent fit that cleared the stability
// gate — the estimate the policy last provisioned from. A storm's decay
// phase destabilizes the trailing window (no growing shape describes
// it), so at end of run this is the representative report, not Fit().
// Its Stable flag is false if no fit ever stabilized.
func (g *GrowthFit) LastStable() FitReport { return g.stable }

// Start implements Autoscaler. The observation timer follows the
// (seed, job name) rule: all randomness it touches is the engine's,
// rooted at the run seed, so results are byte-identical at any pool
// width.
func (g *GrowthFit) Start(eng *sim.Engine) func() {
	return eng.Every(g.cfg.Interval, "scale/growthfit", func() { g.tick(eng) })
}

// tick observes, refits, and either provisions from the projection or
// falls back to the reactive step.
func (g *GrowthFit) tick(eng *sim.Engine) {
	// Observed arrival rate. A target that meters arrivals gives the
	// exact offered rate over the last interval — rejections included, so
	// the signal survives saturation. Bare targets fall back to Little's
	// law (in-flight demand over mean service time), which is only honest
	// while queues stay short.
	var rate float64
	if m, ok := g.target.(ArrivalMeter); ok {
		count := m.Arrivals()
		// The meter contract is monotone, but a dip must degrade to a
		// zero-rate sample, not wrap the unsigned difference into a
		// ~1.8e19 observation that poisons the whole fit window.
		delta := int64(count - g.lastCount)
		if delta < 0 {
			delta = 0
		}
		rate = float64(delta) / sim.ToSeconds(g.cfg.Interval)
		g.lastCount = count
	} else {
		demand := g.target.Load() * float64(maxInt(g.target.Desired(), 1))
		rate = demand / g.cfg.MeanService
	}
	g.observe(sim.ToSeconds(eng.Now()), rate)

	g.fit = FitGrowth(g.times, g.rates)
	g.fit.Stable = g.fit.Observations >= fitMinObservations &&
		g.fit.Residual <= fitMaxResidual
	if !g.fit.Stable {
		g.fallback.tick(eng)
		return
	}
	g.stable = g.fit

	// Provision for the projected rate a lead ahead at deploy's target
	// utilization. No headroom server on top: the utilization target is
	// the headroom, and the lead has already paid for the boot.
	projected := g.fit.Rate(sim.ToSeconds(eng.Now() + g.cfg.Lead))
	want := clamp(deploy.ServersForPeak(projected, g.cfg.MeanService), g.cfg.Min, g.cfg.Max)
	cur := g.target.Desired()
	// The projection never fights observed saturation: if the fleet is
	// already hot and the model says shrink or hold, the reactive step
	// decides instead — the fit may be a good description of yesterday's
	// window and still miss a storm the shapes cannot express.
	if want <= cur && g.target.Load() > g.cfg.Fallback.UpThreshold {
		g.fallback.tick(eng)
		return
	}
	if want != cur {
		g.target.ScaleTo(want)
	}
}

// observe appends one (t, rate) sample, evicting beyond the window.
func (g *GrowthFit) observe(t, rate float64) {
	g.times = append(g.times, t)
	g.rates = append(g.rates, rate)
	if over := len(g.times) - fitWindow; over > 0 {
		g.times = g.times[over:]
		g.rates = g.rates[over:]
	}
}

// Oracle is the scheduled-from-truth policy: it is handed the true
// demand plan (the workload curve the generator will realize, storms
// included) and provisions plan(now+lead), so capacity is booted before
// the demand that needs it arrives. No estimator can beat it on average
// — table12 uses it as the yardstick the growth fitter is judged
// against.
type Oracle struct {
	target   Target
	plan     func(at time.Duration) int
	interval time.Duration
	lead     time.Duration
	min, max int
}

// NewOracle builds an oracle scaler. plan maps an absolute virtual time
// to the fleet the true curve needs then; it must not be nil. Each tick
// provisions for the largest need anywhere in [now, now+lead]: rises
// are booted a lead early, while scale-in waits until the demand has
// actually passed — looking only at plan(now+lead) would shed the fleet
// a lead before the cliff's peak.
func NewOracle(target Target, plan func(at time.Duration) int, interval, lead time.Duration, min, max int) *Oracle {
	if target == nil || plan == nil {
		panic("scale: NewOracle with nil target or plan")
	}
	if interval <= 0 {
		interval = time.Minute
	}
	if lead < 0 {
		lead = 0
	}
	if min <= 0 {
		min = 1
	}
	return &Oracle{target: target, plan: plan, interval: interval, lead: lead, min: min, max: max}
}

// Name implements Autoscaler.
func (o *Oracle) Name() string { return "oracle" }

// Start implements Autoscaler.
func (o *Oracle) Start(eng *sim.Engine) func() {
	return eng.Every(o.interval, "scale/oracle", func() {
		need := 0
		// Sample the plan across the lead window at interval granularity
		// (endpoints included) and take the peak.
		for at := eng.Now(); ; at += o.interval {
			if at > eng.Now()+o.lead {
				at = eng.Now() + o.lead
			}
			if n := o.plan(at); n > need {
				need = n
			}
			if at >= eng.Now()+o.lead {
				break
			}
		}
		want := clamp(need, o.min, o.max)
		if want != o.target.Desired() {
			o.target.ScaleTo(want)
		}
	})
}
