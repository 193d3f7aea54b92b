package scale

import (
	"math"
	"time"

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
	// the utilization signal scalers act on.
	Load() float64
}

// Autoscaler periodically adjusts a Target.
type Autoscaler interface {
	// Name identifies the policy in reports.
	Name() string
	// Start begins periodic control on the engine and returns a stop
	// function.
	Start(eng *sim.Engine) (stop func())
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

// ReactiveConfig parameterizes the threshold scaler.
type ReactiveConfig struct {
	// Interval between control decisions (default 1 minute).
	Interval time.Duration
	// UpThreshold: scale out when Load exceeds it (default 8).
	UpThreshold float64
	// DownThreshold: scale in when Load falls below it (default 2).
	DownThreshold float64
	// Step servers added per scale-out (default 2); scale-in removes one
	// server at a time (conservative, avoids oscillation).
	Step int
	// Min/Max fleet bounds (Min default 1; Max 0 = unbounded).
	Min, Max int
	// Cooldown after a scale-out before the next one (default 2m).
	Cooldown time.Duration
}

func (c *ReactiveConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.UpThreshold <= 0 {
		c.UpThreshold = 8
	}
	if c.DownThreshold <= 0 {
		c.DownThreshold = 2
	}
	if c.DownThreshold >= c.UpThreshold {
		c.DownThreshold = c.UpThreshold / 4
	}
	if c.Step <= 0 {
		c.Step = 2
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Minute
	}
}

// Reactive is a threshold autoscaler: scale out fast when hot, scale in
// slowly when cold — the classic public-cloud control loop.
type Reactive struct {
	target       Target
	cfg          ReactiveConfig
	lastScaleOut sim.Time
}

// NewReactive builds a reactive scaler around target.
func NewReactive(target Target, cfg ReactiveConfig) *Reactive {
	if target == nil {
		panic("scale: NewReactive with nil target")
	}
	cfg.defaults()
	return &Reactive{target: target, cfg: cfg, lastScaleOut: -1 << 60}
}

// Name implements Autoscaler.
func (r *Reactive) Name() string { return "reactive" }

// Start implements Autoscaler.
func (r *Reactive) Start(eng *sim.Engine) func() {
	return eng.Every(r.cfg.Interval, "scale/reactive", func() { r.tick(eng) })
}

// tick is one control decision. GrowthFit delegates here verbatim while
// its fit is unstable, which is what makes the fallback contract
// byte-identical to a plain Reactive run.
func (r *Reactive) tick(eng *sim.Engine) {
	load := r.target.Load()
	cur := r.target.Desired()
	switch {
	case load > r.cfg.UpThreshold:
		if eng.Now()-r.lastScaleOut < r.cfg.Cooldown {
			return
		}
		r.target.ScaleTo(clamp(cur+r.cfg.Step, r.cfg.Min, r.cfg.Max))
		r.lastScaleOut = eng.Now()
	case load < r.cfg.DownThreshold && cur > r.cfg.Min:
		r.target.ScaleTo(clamp(cur-1, r.cfg.Min, r.cfg.Max))
	}
}

// Scheduled scales to a time-of-day plan: capacity follows the timetable
// (lectures at 10:00, homework at 20:00) regardless of observed load.
type Scheduled struct {
	target Target
	// plan maps a time-of-day to the desired fleet size.
	plan     func(sinceMidnight time.Duration) int
	interval time.Duration
	min, max int
}

// NewScheduled builds a plan-following scaler. plan must not be nil.
func NewScheduled(target Target, plan func(sinceMidnight time.Duration) int, interval time.Duration, min, max int) *Scheduled {
	if target == nil || plan == nil {
		panic("scale: NewScheduled with nil target or plan")
	}
	if interval <= 0 {
		interval = 5 * time.Minute
	}
	if min <= 0 {
		min = 1
	}
	return &Scheduled{target: target, plan: plan, interval: interval, min: min, max: max}
}

// Name implements Autoscaler.
func (s *Scheduled) Name() string { return "scheduled" }

// Start implements Autoscaler.
func (s *Scheduled) Start(eng *sim.Engine) func() {
	const day = 24 * time.Hour
	return eng.Every(s.interval, "scale/scheduled", func() {
		want := clamp(s.plan(eng.Now()%day), s.min, s.max)
		if want != s.target.Desired() {
			s.target.ScaleTo(want)
		}
	})
}

// PredictiveConfig parameterizes the forecasting scaler.
type PredictiveConfig struct {
	// Interval between observations (default 1 minute).
	Interval time.Duration
	// Lead is how far ahead to provision for (default 5 minutes — about
	// one VM boot time ahead, which is the point of predicting).
	Lead time.Duration
	// PerServer is the in-flight requests one server should carry at the
	// provisioning target (default 6).
	PerServer float64
	// Min/Max fleet bounds.
	Min, Max int
}

func (c *PredictiveConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.Lead <= 0 {
		c.Lead = 5 * time.Minute
	}
	if c.PerServer <= 0 {
		c.PerServer = 6
	}
	if c.Min <= 0 {
		c.Min = 1
	}
}

// Holt's smoothing constants for the predictive scaler's level and
// trend.
const holtAlpha, holtBeta = 0.5, 0.2

// Predictive forecasts total in-flight demand with Holt's linear
// exponential smoothing and provisions ahead of the trend, absorbing VM
// boot latency.
type Predictive struct {
	target Target
	cfg    PredictiveConfig

	level, trend float64
	initialized  bool
}

// NewPredictive builds a forecasting scaler around target.
func NewPredictive(target Target, cfg PredictiveConfig) *Predictive {
	if target == nil {
		panic("scale: NewPredictive with nil target")
	}
	cfg.defaults()
	return &Predictive{target: target, cfg: cfg}
}

// Name implements Autoscaler.
func (p *Predictive) Name() string { return "predictive" }

// Forecast returns the current demand forecast at the configured lead
// (exported for tests and reports).
func (p *Predictive) Forecast() float64 {
	steps := float64(p.cfg.Lead) / float64(p.cfg.Interval)
	return p.level + p.trend*steps
}

// Start implements Autoscaler.
func (p *Predictive) Start(eng *sim.Engine) func() {
	return eng.Every(p.cfg.Interval, "scale/predictive", func() {
		// Observed total demand: per-server load times fleet size.
		observed := p.target.Load() * float64(maxInt(p.target.Desired(), 1))
		if !p.initialized {
			p.level, p.trend, p.initialized = observed, 0, true
			return
		}
		prevLevel := p.level
		p.level = holtAlpha*observed + (1-holtAlpha)*(p.level+p.trend)
		p.trend = holtBeta*(p.level-prevLevel) + (1-holtBeta)*p.trend
		forecast := p.Forecast()
		if forecast < 0 {
			forecast = 0
		}
		want := clamp(int(math.Ceil(forecast/p.cfg.PerServer)), p.cfg.Min, p.cfg.Max)
		if want != p.target.Desired() {
			p.target.ScaleTo(want)
		}
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
