package scale

import (
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/sim"
)

// Target abstracts the fleet a scaler controls. The scenario package
// implements it by provisioning/retiring app servers on datacenters.
type Target interface {
	// Desired returns the currently requested server count (including
	// servers still booting).
	Desired() int
	// ScaleTo requests a fleet size; implementations clamp to their own
	// capacity limits (a private datacenter may be full).
	ScaleTo(n int)
	// Load returns the mean in-flight requests per accepting server —
	// the utilization signal the reactive loop acts on.
	Load() float64
	// Arrivals returns the cumulative count of request submissions at
	// the fleet, accepted or rejected, counted once at submission time.
	// Both forecasters difference it into their demand signal, which
	// stays honest under saturation, where admission control caps the
	// in-flight count. The count must be monotone: keep a dedicated
	// counter rather than derive it from served/rejected/active sums,
	// which dip while retired servers drain their in-flight jobs.
	Arrivals() uint64
}

// LoopInterval is how often the load- and rate-driven loops (reactive,
// predictive, growth-fit) decide, and the step of the fluid model whose
// fleet they drive.
const LoopInterval = time.Minute

// The reactive control loop, which is also growth-fit's fallback until
// its fit stabilizes: scale out by scaleOutStep servers when the load
// per server passes scaleOutLoad, at most once per scaleOutCooldown,
// and in by one server below scaleInLoad. Both policies run this one
// loop, so an unfittable workload costs growth-fit nothing over the
// reactive scaler.
const (
	scaleOutLoad     = 6.0
	scaleInLoad      = 1.5
	scaleOutStep     = 4
	scaleOutCooldown = 2 * time.Minute
)

// Lead is how far ahead the forecasters and the oracle provision: one
// VM boot (the scenario runner's 3-minute boot grace covers the fleet's
// boot distribution) plus a 5-minute guard, so capacity is accepting
// before the demand that needs it lands.
const Lead = 8 * time.Minute

// meter differences a Target's arrival count into the offered rate over
// the last loop tick, rejections included: the one demand signal of
// both forecasters. A dip in the monotone count reads as a zero rate,
// not as an unsigned difference wrapped to ~1.8e19.
type meter struct{ lastCount uint64 }

// rate returns the requests per second since the previous read.
func (m *meter) rate(t Target) float64 {
	count := t.Arrivals()
	delta := int64(count - m.lastCount)
	if delta < 0 {
		delta = 0
	}
	m.lastCount = count
	return float64(delta) / sim.ToSeconds(LoopInterval)
}

// clamp bounds n to [min, max] (max <= 0 means unbounded above).
func clamp(n, min, max int) int {
	if n < min {
		n = min
	}
	if max > 0 && n > max {
		n = max
	}
	return n
}

// Reactive is a threshold autoscaler: scale out fast when hot, scale in
// slowly when cold — the classic public-cloud control loop.
type Reactive struct {
	target       Target
	min, max     int
	lastScaleOut sim.Time
}

// NewReactive builds a reactive scaler that keeps target between min
// and max servers (max <= 0: unbounded).
func NewReactive(target Target, min, max int) *Reactive {
	if target == nil {
		panic("scale: NewReactive with nil target")
	}
	return &Reactive{target: target, min: min, max: max, lastScaleOut: -1 << 60}
}

// Start begins periodic control on the engine and returns a stop
// function.
func (r *Reactive) Start(eng *sim.Engine) func() {
	return eng.Every(LoopInterval, "scale/reactive", func() { r.tick(eng) })
}

// tick is one control decision. GrowthFit delegates here verbatim while
// its fit is unstable, which is what makes the fallback contract
// byte-identical to a plain Reactive run.
func (r *Reactive) tick(eng *sim.Engine) {
	load := r.target.Load()
	cur := r.target.Desired()
	switch {
	case load > scaleOutLoad:
		if eng.Now()-r.lastScaleOut < scaleOutCooldown {
			return
		}
		r.target.ScaleTo(clamp(cur+scaleOutStep, r.min, r.max))
		r.lastScaleOut = eng.Now()
	case load < scaleInLoad && cur > r.min:
		r.target.ScaleTo(clamp(cur-1, r.min, r.max))
	}
}

// Planned provisions from a plan, the fleet size needed at each virtual
// time, instead of from observed load. Each tick it scales to the
// largest need anywhere in [now, now+lead], sampled at interval
// granularity with both ends included: rises are booted a lead early,
// while scale-in waits until the demand has actually passed (the need
// at now+lead alone would shed the fleet a lead before a cliff's peak).
// With lead 0 it samples the plan once, at now.
type Planned struct {
	target         Target
	plan           func(at time.Duration) int
	interval, lead time.Duration
	min, max       int
}

// NewPlanned builds a plan-following scaler. plan maps an absolute
// virtual time to the fleet needed then; target and plan must not be
// nil.
func NewPlanned(target Target, plan func(at time.Duration) int, interval, lead time.Duration, min, max int) *Planned {
	if target == nil || plan == nil {
		panic("scale: NewPlanned with nil target or plan")
	}
	return &Planned{target: target, plan: plan, interval: interval, lead: lead, min: min, max: max}
}

// Start begins periodic control on the engine and returns a stop
// function.
func (p *Planned) Start(eng *sim.Engine) func() {
	return eng.Every(p.interval, "scale/planned", func() {
		end := eng.Now() + p.lead
		need := 0
		for at := eng.Now(); ; at += p.interval {
			if at > end {
				at = end
			}
			if n := p.plan(at); n > need {
				need = n
			}
			if at >= end {
				break
			}
		}
		want := clamp(need, p.min, p.max)
		if want != p.target.Desired() {
			p.target.ScaleTo(want)
		}
	})
}

// Holt's smoothing constants for the predictive scaler's level and
// trend.
const holtAlpha, holtBeta = 0.5, 0.2

// Predictive forecasts the metered arrival rate with Holt's linear
// exponential smoothing and sizes the forecast Lead ahead as GrowthFit
// sizes its projection; the two differ only in the forecast.
type Predictive struct {
	target      Target
	meanService float64
	min, max    int

	meter        meter
	level, trend float64
	initialized  bool
}

// NewPredictive builds a forecasting scaler that keeps target between
// min and max servers (max <= 0: unbounded); meanService converts the
// forecast rate to servers, as in NewGrowthFit.
func NewPredictive(target Target, meanService float64, min, max int) *Predictive {
	if target == nil {
		panic("scale: NewPredictive with nil target")
	}
	if meanService <= 0 {
		panic("scale: NewPredictive needs a positive mean service time to convert a rate to servers")
	}
	return &Predictive{target: target, meanService: meanService, min: min, max: max}
}

// Forecast returns the arrival-rate forecast Lead ahead, in requests/s.
func (p *Predictive) Forecast() float64 {
	steps := float64(Lead) / float64(LoopInterval)
	return p.level + p.trend*steps
}

// Start begins periodic control on the engine and returns a stop
// function.
func (p *Predictive) Start(eng *sim.Engine) func() {
	return eng.Every(LoopInterval, "scale/predictive", func() {
		observed := p.meter.rate(p.target)
		if !p.initialized {
			p.level, p.trend, p.initialized = observed, 0, true
			return
		}
		prevLevel := p.level
		p.level = holtAlpha*observed + (1-holtAlpha)*(p.level+p.trend)
		p.trend = holtBeta*(p.level-prevLevel) + (1-holtBeta)*p.trend
		want := clamp(deploy.ServersForPeak(p.Forecast(), p.meanService), p.min, p.max)
		if want != p.target.Desired() {
			p.target.ScaleTo(want)
		}
	})
}
