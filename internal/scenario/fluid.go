package scenario

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/cdn"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scale"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// fluidStep is the grid of a fluid run's series, and the grid the
// hybrid fidelity planner aligns its DES windows to.
const fluidStep = 5 * time.Minute

// fluidTick is the fluid model's integration step: the autoscalers'
// loop interval, so the fluid fleet sees every decision its scaler
// makes.
const fluidTick = scale.LoopInterval

// fluidModel is the flow-level model of one run. It steps the
// arrival-rate curve one tick at a time through the fleets a
// request-level run builds: the fixed private fleet, and a public
// fluidFleet on an engine of its own that the configured autoscaler
// drives as it drives a request-level fleet. Each tick routes the mix
// in force as the request-level engine routes requests. A whole-horizon
// run (FidelityFluid) accrues every tick; a hybrid run (FidelityAuto)
// accrues outside its DES windows only, while its fleet keeps running
// through them.
type fluidModel struct {
	cfg     Config // defaulted
	gen     *workload.Generator
	meanSvc float64 // the teaching mix's, which fleets are sized by
	// size is deploy's capacity plan for the run: the same fixed
	// private fleet and owned hosts a request-level run builds.
	size deploy.Sizing
	// cdnHit is the analytic edge hit ratio (zero with the CDN off).
	cdnHit float64
	mixes  []fluidMix

	eng   *sim.Engine
	fleet *fluidFleet // the public side, empty without one
	// at is the next tick to step; the engine has run through it.
	at  time.Duration
	res *Result
	// ticks counts the accrued ticks, and sizeTicks[n] those at which
	// the public fleet held n servers.
	ticks     int64
	sizeTicks []int64
	// offered is the accrued arrival mass ∫rate·dt.
	offered, egressBytes, cdnBytes, utilAccum float64
}

// fluidMix is what a tick reads from a request mix, routed as the
// request-level engine routes it.
type fluidMix struct {
	mix                  *lms.Mix
	meanSvc, meanPayload float64
	// pubReqs and pubBytes are the shares of requests and bytes the
	// public side serves (a hybrid keeps the sensitive classes
	// in-house); cdnBytes is the video chunks' share of bytes, all
	// public, when the CDN serves them.
	pubReqs, pubBytes, cdnBytes float64
}

// newFluidModel builds the model of a defaulted config, its public
// fleet bootstrapped and its autoscaler started.
func newFluidModel(cfg Config) (*fluidModel, error) {
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	m := &fluidModel{
		cfg:     cfg,
		gen:     gen,
		meanSvc: lms.TeachingMix().MeanService(lms.DefaultCatalog()),
		eng:     eng,
		fleet:   &fluidFleet{eng: eng},
		res: &Result{
			Kind:        cfg.Kind,
			Scaler:      cfg.Scaler,
			Duration:    cfg.Duration,
			Latency:     metrics.DefaultLatency(),
			Rate:        metrics.NewTimeSeries("rate-rps"),
			Servers:     metrics.NewTimeSeries("servers"),
			Utilization: metrics.NewTimeSeries("load-per-server"),
			P95Series:   metrics.NewTimeSeries("p95-window"),
		},
	}
	if m.size, err = deploy.Size(specFor(cfg, gen.MaxRate(), m.meanSvc)); err != nil {
		return nil, err
	}
	steps := int((cfg.Duration + fluidStep - 1) / fluidStep)
	m.res.Rate.Grow(steps)
	m.res.Servers.Grow(steps)
	if cfg.EnableCDN {
		m.cdnHit = cdn.AnalyticHitRatio(CoursesFor(cfg.Students))
	}
	if cfg.Kind == deploy.Public || cfg.Kind == deploy.Hybrid {
		initial, maxPublic := publicBounds(cfg, m.size)
		m.fleet.max = maxPublic
		m.fleet.ScaleTo(initial)
		if _, _, err := startScaler(eng, cfg, gen, m.meanSvc, m.fleet, initial, maxPublic); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// mixAt returns the routed form of the request mix in force at t.
func (m *fluidModel) mixAt(t time.Duration) fluidMix {
	mix := m.gen.MixAt(t)
	for _, fm := range m.mixes {
		if fm.mix == mix {
			return fm
		}
	}
	cat := lms.DefaultCatalog()
	fm := fluidMix{mix: mix, meanSvc: mix.MeanService(cat), meanPayload: mix.MeanPayload(cat)}
	switch m.cfg.Kind {
	case deploy.Public:
		fm.pubReqs, fm.pubBytes = 1, 1
	case deploy.Hybrid:
		fm.pubReqs = 1 - mix.SensitiveShare(cat)
		fm.pubBytes = 1 - mix.PayloadShare(cat, func(c lms.Class) bool { return cat.Spec(c).Sensitive })
	}
	if m.cfg.EnableCDN && fm.pubBytes > 0 {
		fm.cdnBytes = mix.PayloadShare(cat, func(c lms.Class) bool { return c == lms.VideoChunk })
	}
	m.mixes = append(m.mixes, fm)
	return fm
}

// integrate steps the model from its clock up to to, accruing the
// ticks at or after from. The engine runs to each next tick, so the
// scaler's decisions due then land before the tick is stepped (and
// the engine never runs to 0, which would mean no horizon).
func (m *fluidModel) integrate(from, to time.Duration) {
	for ; m.at < to; m.at += fluidTick {
		m.step(m.at, m.at >= from)
		m.eng.Run(m.at + fluidTick)
	}
}

// step routes tick t's arrivals to the public fleet and, when accrue
// is set, adds the tick to the run's consumption.
func (m *fluidModel) step(t time.Duration, accrue bool) {
	rate, mix, f := m.gen.Rate(t), m.mixAt(t), m.fleet
	f.rate, f.meanSvc = rate*mix.pubReqs, mix.meanSvc
	f.arrivals += f.rate * fluidTick.Seconds()
	if !accrue {
		return
	}
	res, pub, priv := m.res, f.Desired(), m.size.PrivateServers
	m.ticks++
	for len(m.sizeTicks) <= pub {
		m.sizeTicks = append(m.sizeTicks, 0)
	}
	m.sizeTicks[pub]++
	res.PeakServers = max(res.PeakServers, pub+priv)
	if priv > 0 {
		busy := deploy.ServersForPeak(rate*(1-mix.pubReqs), mix.meanSvc)
		m.utilAccum += float64(min(busy, priv)) / float64(priv)
	}
	offered := rate * fluidTick.Seconds()
	m.offered += offered
	bytes := offered * mix.meanPayload
	video := bytes * mix.cdnBytes
	m.cdnBytes += video
	m.egressBytes += bytes*mix.pubBytes - video*m.cdnHit
	if t%fluidStep == 0 {
		res.Rate.Add(t, rate)
		res.Servers.Add(t, float64(pub+priv))
	}
}

// finish writes the accrued totals into the result and returns it.
// Each tick count becomes hours in one correctly rounded division, so a
// fleet held for whole hours bills them exactly. The flow model has no
// requests: the offered mass, rounded, counts arrived and served, and
// Latency, Utilization, P95Series and Events stay empty. It assumes
// the last mile is up. An offered mass, egress or CDN byte count that
// is not a finite number >= 0 is an error: rounded into the ledger, a
// NaN or infinite mass would read as 2^63 requests arrived and served,
// which balances.
func (m *fluidModel) finish() (*Result, error) {
	for _, x := range [...]float64{m.offered, m.egressBytes, m.cdnBytes} {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("scenario: fluid model accrued %v requests, %v egress bytes and %v CDN bytes, need finite values >= 0",
				m.offered, m.egressBytes, m.cdnBytes)
		}
	}
	res := m.res
	res.Arrivals = uint64(math.Round(m.offered))
	res.Served = res.Arrivals
	res.NetAvailability = 1
	res.CDNHitRatio = m.cdnHit
	perHour := float64(time.Hour / fluidTick)
	var vmTicks, above int64
	res.ServerRankHours = make([]float64, max(0, len(m.sizeTicks)-1))
	for n := len(m.sizeTicks) - 1; n > 0; n-- {
		above += m.sizeTicks[n]
		vmTicks += int64(n) * m.sizeTicks[n]
		res.ServerRankHours[n-1] = float64(above) / perHour
	}
	res.VMHoursPublic = float64(vmTicks) / perHour
	res.VMHoursPrivate = float64(int64(m.size.PrivateServers)*m.ticks) / perHour
	res.FluidSimHours = float64(m.ticks) / perHour
	res.MeanPrivateUtil = m.utilAccum / float64(max(m.ticks, 1)) // 0 without a private side
	res.EgressGB = m.egressBytes / 1e9
	res.CDNGB = m.cdnBytes / 1e9
	res.PrivateHosts = m.size.PrivateHosts
	return res, nil
}
