package core

import (
	"fmt"
	"time"

	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// This file is the advisor's forecasting mode: given a projected
// enrollment growth curve, evaluate a grid of deployment plans —
// deployment model × scaling policy × purchase mix — through a
// simulation of that curve, and return the evaluated points for
// cost.ParetoSearch and cost.CheapestCompliant to answer "the cheapest
// P95-compliant plan is X".

// forecastScalers are the elasticity policies the plan grid evaluates
// on elastic models. The oracle is deliberately absent: the advisor
// recommends plans an institution can actually run, and nobody is
// handed the true demand curve in production.
func forecastScalers() []scenario.ScalerKind {
	return []scenario.ScalerKind{
		scenario.ScalerReactive,
		scenario.ScalerPredictive,
		scenario.ScalerGrowthFit,
	}
}

// ForecastConfig parameterizes the plan-grid evaluation.
type ForecastConfig struct {
	// Seed drives all component simulations.
	Seed uint64
	// Growth is the projected enrollment curve (required).
	Growth *workload.Growth
	// ReqPerStudentHour is mean per-student demand (default 50).
	ReqPerStudentHour float64
	// Duration is the simulated horizon (default 2h).
	Duration time.Duration
	// Diurnal shapes the day (default flat: a forecast answers "what
	// does the growth curve cost", not "when during the day").
	Diurnal *workload.DiurnalProfile
	// EnableCDN serves video through an edge CDN on the public-facing
	// plans, a knob that moves egress cost but not the queue.
	EnableCDN bool
	// Pool is the shared worker pool the grid fans out on (nil means a
	// one-off pool). Results are identical for every pool.
	Pool *scenario.Pool
}

func (c *ForecastConfig) defaults() error {
	if c.Growth == nil {
		return fmt.Errorf("core: forecast needs a growth curve")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ReqPerStudentHour == 0 {
		c.ReqPerStudentHour = 50
	}
	if c.ReqPerStudentHour < 0 {
		return fmt.Errorf("core: negative ReqPerStudentHour")
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.Diurnal == nil {
		c.Diurnal = workload.FlatDiurnal()
	}
	return nil
}

// ForecastFrontier runs the plan grid through the growth curve and
// returns every evaluated plan point: the public model under each
// forecasting-capable scaler and each purchase mix, the hybrid model
// under the same scalers (billed on-demand — its public side is the
// burst tier, which is what on-demand is for), and the private model's
// fixed fleet. Deterministic given cfg; feed the points to
// cost.ParetoSearch for the frontier or cost.CheapestCompliant for a
// recommendation.
func ForecastFrontier(cfg ForecastConfig) ([]cost.PlanPoint, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}

	batch := scenario.NewBatch(cfg.Seed)
	add := func(kind deploy.Kind, sk scenario.ScalerKind) string {
		name := kind.String() + "/" + sk.String()
		batch.Add(name, scenario.Config{
			Seed:              cfg.Seed,
			Kind:              kind,
			Growth:            cfg.Growth,
			ReqPerStudentHour: cfg.ReqPerStudentHour,
			Duration:          cfg.Duration,
			Diurnal:           cfg.Diurnal,
			EnableCDN:         cfg.EnableCDN,
			Scaler:            sk,
		})
		return name
	}
	for _, kind := range []deploy.Kind{deploy.Public, deploy.Hybrid} {
		for _, sk := range forecastScalers() {
			add(kind, sk)
		}
	}
	add(deploy.Private, scenario.ScalerFixed)

	runs, err := batch.RunOn(cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("core: forecast grid: %w", err)
	}

	months := cfg.Duration.Hours() / cost.HoursPerMonth
	var points []cost.PlanPoint

	point := func(kind deploy.Kind, sk scenario.ScalerKind, res *scenario.Result) cost.PlanPoint {
		return cost.PlanPoint{
			Model:     kind.String(),
			Scaler:    sk.String(),
			Mix:       "on-demand",
			USD:       res.Cost.Total(),
			P95:       res.Latency.P95(),
			ErrorRate: res.ErrorRate(),
			VMHours:   res.VMHoursPublic + res.VMHoursPrivate,
		}
	}

	// Public: three purchase mixes per scaler. The run bills on-demand;
	// a mix swaps only the compute component, latency untouched — the
	// purchase knob is invisible to the queue.
	for _, sk := range forecastScalers() {
		res := runs.Result(deploy.Public.String() + "/" + sk.String())
		rank := billedRankHours(res)
		base := point(deploy.Public, sk, res)
		nonCompute := res.Cost.Total() - res.Cost.Compute
		for _, m := range []struct {
			name string
			mix  cost.PurchaseMix
		}{
			{"on-demand", cost.AllOnDemandMix(rank)},
			{"reserved-mix", cost.OptimizeReservedMix(rank, months)},
			{"all-reserved", cost.AllReservedMix(rank, months)},
		} {
			p := base
			p.Mix = m.name
			p.Reserved = m.mix.Reserved
			p.USD = nonCompute + m.mix.ComputeUSD()
			points = append(points, p)
		}
	}
	for _, sk := range forecastScalers() {
		res := runs.Result(deploy.Hybrid.String() + "/" + sk.String())
		points = append(points, point(deploy.Hybrid, sk, res))
	}
	res := runs.Result(deploy.Private.String() + "/" + scenario.ScalerFixed.String())
	points = append(points, point(deploy.Private, scenario.ScalerFixed, res))
	return points, nil
}

// billedRankHours converts the sampled fleet-size series into a
// utilization duration curve — rank[k] is how many hours at least k+1
// servers were running, the shape OptimizeReservedMix prices — and
// normalizes it so that pricing the whole curve on-demand reproduces the
// run's billed compute exactly. The normalization keeps the frontier on
// one pricing method: without it the sampled reconstruction diverges
// from the continuously-integrated bill (sampling granularity, boot
// edges), and the public rows would be priced differently from the
// hybrid/private rows that use res.Cost.Total() directly.
func billedRankHours(res *scenario.Result) []float64 {
	rank := rankHoursFromServers(res.Servers)
	if od := cost.AllOnDemandMix(rank).ComputeUSD(); od > 0 && res.Cost.Compute > 0 {
		scale := res.Cost.Compute / od
		for k := range rank {
			rank[k] *= scale
		}
	}
	return rank
}

// rankHoursFromServers builds the raw duration curve from the fleet-size
// series. Each sample's fleet size holds until the next sample; the per-
// point duration comes from the timestamps, not an assumed cadence, so
// the curve's shape survives a change to the runner's sample timer. The
// final sample is extended by the preceding gap (the sampler is
// periodic); a single-sample series spans no measurable time.
func rankHoursFromServers(ts *metrics.TimeSeries) []float64 {
	pts := ts.Points()
	var rank []float64
	for i, p := range pts {
		var dt time.Duration
		switch {
		case i+1 < len(pts):
			dt = pts[i+1].At - p.At
		case i > 0:
			dt = p.At - pts[i-1].At
		default:
			return nil
		}
		n := int(p.Value)
		for len(rank) < n {
			rank = append(rank, 0)
		}
		for k := 0; k < n; k++ {
			rank[k] += dt.Hours()
		}
	}
	return rank
}
