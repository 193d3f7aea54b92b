package scenario

import (
	"math"
	"time"

	"elearncloud/internal/cdn"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/workload"
)

// fluidStep is the integration step of a fluid run — and the grid the
// hybrid fidelity planner aligns its DES windows to, so a hybrid run's
// fluid segments step through exactly the instants a whole-horizon
// fluid run would, in the same order, accumulating the same floats.
const fluidStep = 5 * time.Minute

// fluidModel is the flow-level integrator's fixed state: everything
// derived from the config once, so integration can be applied to the
// whole horizon (FidelityFluid) or resumed segment by segment around
// DES windows (FidelityAuto) with identical arithmetic.
type fluidModel struct {
	cfg         Config // defaulted
	gen         *workload.Generator
	meanSvc     float64
	meanPayload float64
	// size is deploy's capacity plan for the run: the same fixed
	// private fleet and owned hosts a request-level run builds.
	size deploy.Sizing
	// pubShare is the fraction of served bytes leaving the public cloud.
	pubShare float64
	// videoByteShare and cdnHit parameterize the analytic CDN split.
	videoByteShare float64
	cdnHit         float64
}

// newFluidModel derives the integrator's fixed state from a defaulted
// config.
func newFluidModel(cfg Config) (*fluidModel, error) {
	cat, teaching := lms.DefaultCatalog(), lms.TeachingMix()
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	m := &fluidModel{
		cfg:         cfg,
		gen:         gen,
		meanSvc:     teaching.MeanService(cat),
		meanPayload: teaching.MeanPayload(cat),
		pubShare:    1.0,
	}
	if m.size, err = deploy.Size(specFor(cfg, gen.MaxRate(), m.meanSvc)); err != nil {
		return nil, err
	}
	switch cfg.Kind {
	case deploy.Private, deploy.Desktop:
		m.pubShare = 0
	case deploy.Hybrid:
		// Sensitive traffic stays in-house; the rest serves publicly.
		m.pubShare = 1 - teaching.SensitiveShare(cat)
	}
	if cfg.EnableCDN {
		m.videoByteShare = teaching.PayloadShare(cat, lms.VideoChunk)
		cdnCfg := cdn.DefaultConfig(CoursesFor(cfg.Students))
		m.cdnHit = cdn.AnalyticHitRatio(cdnCfg.CatalogObjects, cdnCfg.CacheObjects, cdnCfg.ZipfS)
	}
	return m, nil
}

// split divides a server need between the public and private sides:
// the fixed private fleet is always on, and the public side carries
// the rest (all of it without a private side; none of it on a
// private-only or desktop deployment).
func (m *fluidModel) split(needed int) (pub, priv int) {
	priv = m.size.PrivateServers
	switch m.cfg.Kind {
	case deploy.Public, deploy.Hybrid:
		pub = max(0, needed-priv)
	}
	return pub, priv
}

// fluidAccum carries the integration state across segments: the result
// being built plus the scalar accumulators that only finalize once the
// whole horizon is covered.
type fluidAccum struct {
	res         *Result
	egressBytes float64
	cdnBytes    float64
	utilAccum   float64
	steps       int
	// hours is the total span integrated so far (the fluid side of a
	// hybrid run's fidelity split).
	hours float64
}

// newAccum starts an empty accumulator for one integration pass. Its
// series are sized for one sample per fluid step of the horizon, the
// most any sequence of integrate calls adds.
func (m *fluidModel) newAccum() *fluidAccum {
	steps := int((m.cfg.Duration + fluidStep - 1) / fluidStep)
	res := &Result{
		Kind:     m.cfg.Kind,
		Scaler:   m.cfg.Scaler,
		Duration: m.cfg.Duration,
		Rate:     metrics.NewTimeSeries("rate-rps"),
		Servers:  metrics.NewTimeSeries("servers"),
	}
	res.Rate.Grow(steps)
	res.Servers.Grow(steps)
	return &fluidAccum{res: res}
}

// integrate steps the flow model over [from, to), accumulating into
// acc. Calling it once over the whole horizon, or repeatedly over the
// horizon's quiet segments in time order with fluidStep-aligned
// boundaries, visits the same instants with the same accumulation
// order — the float-determinism property the empty-plan hybrid test
// pins against a fluid run.
func (m *fluidModel) integrate(acc *fluidAccum, from, to time.Duration) {
	res := acc.res
	stepHours := fluidStep.Hours()
	privServers := m.size.PrivateServers
	for t := from; t < to; t += fluidStep {
		rate := m.gen.Rate(t)
		needed := deploy.ServersForPeak(rate, m.meanSvc)

		pub, priv := m.split(needed)
		res.VMHoursPublic += float64(pub) * stepHours
		res.VMHoursPrivate += float64(priv) * stepHours
		for k := 0; k < pub; k++ {
			if k >= len(res.ServerRankHours) {
				res.ServerRankHours = append(res.ServerRankHours, 0)
			}
			res.ServerRankHours[k] += stepHours
		}
		if total := pub + priv; total > res.PeakServers {
			res.PeakServers = total
		}
		if privServers > 0 {
			busyPriv := math.Min(float64(needed), float64(privServers))
			acc.utilAccum += busyPriv / float64(privServers)
			acc.steps++
		}
		res.OfferedRequests += rate * fluidStep.Seconds()
		publicBytes := rate * fluidStep.Seconds() * m.meanPayload * m.pubShare
		if m.cfg.EnableCDN {
			video := publicBytes * m.videoByteShare
			acc.cdnBytes += video
			acc.egressBytes += (publicBytes - video) + video*(1-m.cdnHit)
		} else {
			acc.egressBytes += publicBytes
		}

		res.Rate.Add(t, rate)
		res.Servers.Add(t, float64(pub+priv))
		acc.hours += stepHours
	}
}

// runFluid integrates a defaulted cfg's arrival-rate curve into
// capacity, utilization and consumption over the whole horizon
// (FidelityFluid). The flow model has no requests, so the Result's
// Latency, Utilization and P95Series are empty; its FluidSimHours is
// the horizon.
func runFluid(cfg Config) (*Result, error) {
	m, err := newFluidModel(cfg)
	if err != nil {
		return nil, err
	}
	acc := m.newAccum()
	m.integrate(acc, 0, cfg.Duration)

	res := acc.res
	if acc.steps > 0 {
		res.MeanPrivateUtil = acc.utilAccum / float64(acc.steps)
	}
	res.EgressGB = acc.egressBytes / 1e9
	res.CDNGB = acc.cdnBytes / 1e9
	res.CDNHitRatio = m.cdnHit
	downsampleTo := max(fluidStep, cfg.Duration/500) // keep figure series plottable
	res.Rate = res.Rate.Downsample(downsampleTo)
	res.Servers = res.Servers.Downsample(downsampleTo)
	res.Latency = metrics.DefaultLatency()
	res.Utilization = metrics.NewTimeSeries("load-per-server")
	res.P95Series = metrics.NewTimeSeries("p95-window")
	res.PrivateHosts = m.size.PrivateHosts
	res.FluidSimHours = cfg.Duration.Hours()
	// The flow model assumes the last mile is up.
	res.NetAvailability = 1
	return res, nil
}
