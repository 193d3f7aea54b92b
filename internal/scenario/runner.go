package scenario

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/cdn"
	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/scale"
	"elearncloud/internal/security"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// bootGrace delays the first arrivals so bootstrap fleets finish booting;
// it is charged to the horizon like any quiet period.
const bootGrace = 3 * time.Minute

// desktopSlowdown models aging lab PCs versus a provisioned server core.
const desktopSlowdown = 1.4

// Run executes a full request-level simulation of cfg and returns the
// measured Result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return runEngine(cfg, nil, nil)
}

// genFor builds the workload generator for a defaulted config.
func genFor(cfg Config) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{
		Students:          cfg.Students,
		Growth:            cfg.Growth,
		ReqPerStudentHour: cfg.ReqPerStudentHour,
		Diurnal:           cfg.Diurnal,
		Calendar:          cfg.Calendar,
		Crowds:            cfg.Crowds,
		Storms:            cfg.Storms,
		Joins:             cfg.Joins,
	})
}

// specFor is the deployment of a defaulted cfg whose fleet absorbs
// peakRPS requests per second of meanSvc seconds of work each.
func specFor(cfg Config, peakRPS, meanSvc float64) deploy.Spec {
	return deploy.Spec{
		Kind:            cfg.Kind,
		ExpectedPeakRPS: peakRPS,
		MeanServiceSec:  meanSvc,
		Policy:          cfg.HybridPolicy,
	}
}

// assetsFor is cfg's asset inventory under deploy's placement rule.
func assetsFor(cfg Config) lms.Inventory {
	return lms.NewInventory(cfg.Courses, cfg.Students, deploy.Place(cfg.Kind, cfg.HybridPolicy))
}

// engine is one request-level run: the substrates build wires, the
// ledgers the request handlers keep, and what collect reads back.
type engine struct {
	cfg Config
	eng *sim.Engine
	// sh, when non-nil, makes the run one shard of a sharded run; win,
	// when non-nil, confines it to one hybrid DES window.
	sh  *shard
	win *desWindow
	// endAt is where the run stops: the horizon, or the window's end.
	endAt time.Duration

	cat      *lms.Catalog
	dep      *deploy.Deployment
	topo     *network.Topology
	stream   *workload.ArrivalStream
	edge     *cdn.Edge
	threat   *security.ThreatModel
	sessions []*lms.Session
	stops    []func()

	pubCluster, privCluster *lms.Cluster
	pubFleet, privFleet     *fleet
	growthFit               *scale.GrowthFit

	svcRNG, payRNG, netRNG *sim.RNG

	// next is the one pending arrival, which arriveFn (e.arrive, bound
	// once) handles when it fires.
	next     workload.Arrival
	arriveFn func()
	// free recycles request records (see request).
	free []*request

	res         *Result
	windowHist  *metrics.Histogram
	egressBytes float64
	// liveReqs counts real requests admitted to a cluster that have
	// neither been delivered nor killed — the queue mass a hybrid window
	// hands back across its closing seam (CarriedOut). It is maintained
	// independently of the outcome counters so the seam conservation
	// identity is a genuine cross-check, not an echo.
	liveReqs int
}

// request is the record of one admitted request, from admission to
// delivery. Records are pooled per engine, and each carries its
// callbacks as method values bound once when the record is created, so
// a request allocates nothing on its way through the engine. A record
// returns to the pool when admission is refused, when its response is
// delivered, or when a host failure kills it; one still in flight when
// a hybrid window closes is dropped with the window's engine.
type request struct {
	e       *engine
	path    *network.Path
	egress  bool // bill the payload as public egress
	payload float64
	start   sim.Time

	doneFn    func(served bool) // r.done
	deliverFn func()            // r.deliver
}

// runEngine executes one simulation engine over a defaulted cfg in
// three steps: build wires the substrates and schedules the arrival
// pump and the periodic processes, the engine runs, and collect reads
// the ledgers back.
//
// sh, when non-nil, makes the engine one shard of a K ≥ 2 sharded run:
// it draws only the shard's users and scales every rate and sizing
// input by the shard's share. win, when non-nil, restricts the engine
// to one hybrid DES window: the clock is warped to the window's start,
// the fleet warm-started at the fluid model's size, the queue seeded
// with synthetic backlog, and the run cut off at the window's end (see
// hybrid.go for the stitching rules).
func runEngine(cfg Config, sh *shard, win *desWindow) (*Result, error) {
	e := &engine{cfg: cfg, eng: sim.NewEngine(cfg.Seed), sh: sh, win: win}
	if err := e.build(); err != nil {
		return nil, err
	}
	e.eng.Run(e.endAt)
	for _, stop := range e.stops {
		stop()
	}
	return e.collect()
}

// build wires the deployment, network, fleets, autoscaler, CDN,
// sessions, failures and threats onto the engine and schedules the
// first arrival.
func (e *engine) build() error {
	cfg, eng, sh, win := e.cfg, e.eng, e.sh, e.win
	// startAt/endAt delimit this engine's slice of the horizon: the
	// whole run on the direct path, one DES window under HybridRun. The
	// clock warp makes every absolute-time consumer (calendar lookups,
	// diurnal shapes, scheduled scalers, the sampler) see true virtual
	// time without knowing about windows.
	startAt := time.Duration(0)
	e.endAt = cfg.Duration
	if win != nil {
		startAt, e.endAt = win.start, win.end
		if err := eng.Import(sim.State{Now: startAt}); err != nil {
			return err
		}
	}
	e.cat = lms.DefaultCatalog()
	meanSvc := lms.TeachingMix().MeanService(e.cat)

	gen, err := genFor(cfg)
	if err != nil {
		return err
	}
	// A shard's fleet absorbs only its share of the peak; capacity is
	// split proportionally to shard population (the documented
	// approximation — see ShardedRun). Unsharded, the share is 1.
	share := 1.0
	if sh != nil {
		share = sh.share
	}
	dep, err := deploy.Build(eng, specFor(cfg, gen.MaxRate()*share, meanSvc))
	if err != nil {
		return err
	}
	e.dep = dep
	e.topo = network.BuildTopology(eng, cfg.Access)

	e.res = &Result{
		Kind:         cfg.Kind,
		Scaler:       cfg.Scaler,
		Duration:     cfg.Duration,
		Latency:      metrics.DefaultLatency(),
		Servers:      metrics.NewTimeSeries("servers"),
		Utilization:  metrics.NewTimeSeries("load-per-server"),
		P95Series:    metrics.NewTimeSeries("p95-window"),
		PrivateHosts: dep.PrivateHosts,
	}
	e.windowHist = metrics.DefaultLatency()

	// --- fleets ---------------------------------------------------------
	e.pubCluster = lms.NewCluster("public")
	e.privCluster = lms.NewCluster("private")
	if dep.PublicDC != nil {
		maxPublic := cfg.MaxPublicServers
		if maxPublic <= 0 {
			maxPublic = dep.ServersAtPeak * 4
		}
		e.pubFleet = newFleet(eng, dep.PublicDC, e.pubCluster, dep.PublicSpec, maxPublic)
		// The public side is sized for the peak the fixed private fleet
		// does not carry.
		initial := max(1, dep.ServersAtPeak-dep.PrivateServers)
		if cfg.Scaler != ScalerFixed {
			initial = max(2, (initial+3)/4)
		}
		// A hybrid DES window warm-starts at the fleet the fluid model
		// was running when the window opened (its share of it, under
		// sharding) — the boundary-stitch that spares the scaler from
		// re-climbing out of the bootstrap floor mid-horizon. The floor
		// itself is unchanged: the scaler may still scale in to it.
		warm := initial
		if win != nil && cfg.Scaler != ScalerFixed {
			warm = min(maxPublic, max(initial, int(math.Ceil(float64(win.initServers)*share))))
		}
		e.pubFleet.ScaleTo(warm)
		// The bootstrap size is also the scale-in floor: production
		// fleets never drain below their baseline, or the first spike
		// after a quiet night pays the full boot lag.
		scaler, stop, err := startScaler(eng, cfg, gen, meanSvc, e.pubFleet, initial, maxPublic, share)
		if err != nil {
			return err
		}
		if stop != nil {
			e.stops = append(e.stops, stop)
		}
		e.growthFit, _ = scaler.(*scale.GrowthFit)
	}
	if dep.PrivateDC != nil {
		e.privFleet = newFleet(eng, dep.PrivateDC, e.privCluster, dep.PrivateSpec, 0)
		e.privFleet.ScaleTo(dep.PrivateServers) // fixed fleet, sized up front
	}

	// --- CDN ---------------------------------------------------------------
	if cfg.EnableCDN && dep.PublicDC != nil {
		e.edge, err = cdn.NewEdge(cdn.DefaultConfig(cfg.Courses), eng.Stream("cdn"))
		if err != nil {
			return err
		}
		if win != nil {
			// Mid-horizon windows see the cache warmth the fluid model's
			// analytic hit ratio assumed, not a cold (all-miss) edge —
			// the cold-CDN divergence regime PR 7's fuzzer pinned.
			e.edge.Warm(win.cdnWarm)
		}
	}

	// --- arrivals ------------------------------------------------------------
	e.svcRNG, e.payRNG, e.netRNG = eng.Stream("service"), eng.Stream("payload"), eng.Stream("net")
	streamStart := startAt + bootGrace
	if sh != nil {
		e.stream = sh.gen.Stream(eng.Stream("workload"), streamStart)
	} else {
		e.stream = gen.Stream(eng.Stream("workload"), streamStart)
	}
	e.arriveFn = e.arrive
	e.pump()

	// --- hybrid window backlog seeding -------------------------------------
	// The queue mass the fluid model says is in flight when the window
	// opens re-materializes as synthetic mean-service jobs, injected
	// once the warm fleet has booted. They settle liveness only — no
	// latency observation, no Served count, no egress — so the window's
	// statistics describe real requests, while its queues start at the
	// fluid state instead of empty.
	backlogDone := func(bool) {} // shared no-op completion for synthetic jobs
	if win != nil && cfg.Kind != deploy.Desktop {
		n := int(math.Round(float64(win.backlog) * share))
		backlogCluster := e.pubCluster
		if cfg.Kind == deploy.Private || dep.PublicDC == nil {
			backlogCluster = e.privCluster
		}
		eng.ScheduleAt(startAt+bootGrace, "hybrid-backlog", func() {
			for i := 0; i < n; i++ {
				if backlogCluster.Submit(meanSvc, backlogDone) {
					e.res.CarriedIn++
				}
			}
		})
	}

	// --- sessions and lost work ------------------------------------------
	if cfg.Kind != deploy.Desktop {
		e.sessions = make([]*lms.Session, cfg.TrackedSessions)
		for i := range e.sessions {
			e.sessions[i] = lms.NewSession(i, 0)
		}
		e.stops = append(e.stops, eng.Every(cfg.AutosaveEvery, "autosave", func() {
			for _, s := range e.sessions {
				s.Autosave(eng.Now())
			}
		}))
		if fp := e.topo.LastMile.Failure(); fp != nil {
			fp.OnChange(func(up bool) {
				now := eng.Now()
				if up {
					for _, s := range e.sessions {
						s.Reconnect(now)
					}
					return
				}
				e.res.Disconnects++
				for _, s := range e.sessions {
					s.Disconnect(now)
				}
			})
		}
	}

	// --- host failure injection --------------------------------------------
	// Outside this engine's slice the failure never fires: a window
	// opening after the failure instant must not see the event clamp to
	// its warped clock and destroy a host that (per the plan) failed
	// and recovered in fluid time.
	if cfg.HostFailureAt > 0 && e.privFleet != nil && cfg.HostFailureAt >= startAt && cfg.HostFailureAt < e.endAt {
		eng.ScheduleAt(cfg.HostFailureAt, "host-failure", func() {
			// Killed requests are counted as Kill hands them back
			// (request.done); killed synthetic backlog jobs are not.
			e.privFleet.FailHost(0)
			dep.PrivateDC.FailHost(0)
			eng.Schedule(cfg.HostRecoveryAfter, "host-repair", func() {
				dep.PrivateDC.RepairHost(0)
				e.privFleet.ScaleTo(dep.PrivateServers)
			})
		})
	}

	// --- threats ----------------------------------------------------------
	if cfg.EnableThreats {
		e.threat, err = security.NewThreatModel(eng, eng.Stream("threat"), security.ConfigFor(cfg.Kind), assetsFor(cfg))
		if err != nil {
			return err
		}
		e.stops = append(e.stops, e.threat.Start())
	}

	// --- periodic sampling -------------------------------------------------
	e.stops = append(e.stops, eng.Every(time.Minute, "sample", e.sample))
	return nil
}

// pump schedules the stream's next arrival in the engine's slot, so no
// arrival enters the event heap; handling an arrival pumps the one
// after it.
func (e *engine) pump() {
	a, ok := e.stream.Next(e.endAt)
	if !ok {
		return
	}
	e.next = a
	e.eng.ScheduleSlot(a.At, "arrival", e.arriveFn)
}

// arrive handles the pending arrival and pumps the next one.
func (e *engine) arrive() {
	e.res.Arrivals++
	e.handle(e.next)
	e.pump()
}

// handle routes one arrival to a side of the deployment, or counts it
// rejected or offline.
func (e *engine) handle(a workload.Arrival) {
	cfg, res, topo := &e.cfg, e.res, e.topo
	spec := e.cat.Spec(a.Class)
	service := spec.Service.Sample(e.svcRNG)
	payload := spec.Payload.Sample(e.payRNG)

	if cfg.Kind == deploy.Desktop {
		// Locally installed application: no network, no queueing
		// across users, just a slower machine.
		res.Latency.Observe(service*desktopSlowdown, e.windowHist)
		res.Served++
		return
	}

	path, cluster, public := topo.ToCloud, e.pubCluster, true
	if cfg.Kind == deploy.Private || (cfg.Kind == deploy.Hybrid && spec.Sensitive) {
		path, cluster, public = topo.ToCampus, e.privCluster, false
	}
	now := e.eng.Now()
	// Video served through the CDN: edge hits skip the backbone and
	// bill at CDN rates; misses pay the origin trip. The edge does
	// its own byte accounting either way.
	if e.edge != nil && public && a.Class == lms.VideoChunk {
		if !topo.ToEdge.Up() {
			res.Offline++
			return
		}
		hit := e.edge.Serve(payload)
		videoPath := topo.ToEdge
		if !hit {
			videoPath = topo.ToCloud
		}
		if e.admit(cluster, service, videoPath, false, payload, now) {
			return
		}
		res.Rejected++
		return
	}
	// Relaxed hybrids divert sensitive work to the public side as
	// soon as the private side runs hot (per-server pressure above
	// the burst threshold), not only when admission fails — waiting
	// for the 256-job wall would mean minutes of queueing first.
	const burstLoad = 8
	if cfg.Kind == deploy.Hybrid && spec.Sensitive && !cfg.StrictPinning &&
		e.privCluster.Load() > burstLoad && topo.ToCloud.Up() {
		if e.admit(e.pubCluster, service, topo.ToCloud, true, payload, now) {
			res.PolicyViolations++
			return
		}
	}
	if !path.Up() {
		res.Offline++
		return
	}
	if e.admit(cluster, service, path, public, payload, now) {
		return
	}
	// Admission failed. Hybrids may still burst sensitive work
	// publicly unless pinning is strict (Table 4's policy knob).
	if cfg.Kind == deploy.Hybrid && spec.Sensitive && !cfg.StrictPinning && topo.ToCloud.Up() {
		if e.admit(e.pubCluster, service, topo.ToCloud, true, payload, now) {
			res.PolicyViolations++
			return
		}
	}
	res.Rejected++
}

// admit submits a real (non-backlog) request to cluster on a pooled
// record whose response will travel over path, and counts it in
// liveReqs if admitted. billEgress marks a public-side response.
func (e *engine) admit(cluster *lms.Cluster, service float64, path *network.Path, billEgress bool, payload float64, start sim.Time) bool {
	var r *request
	if n := len(e.free); n > 0 {
		r = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		r = &request{e: e}
		r.doneFn, r.deliverFn = r.done, r.deliver
	}
	r.path, r.egress, r.payload, r.start = path, billEgress, payload, start
	if cluster.Submit(service, r.doneFn) {
		e.liveReqs++
		return true
	}
	e.release(r)
	return false
}

// release returns a request record to its engine's pool.
func (e *engine) release(r *request) {
	r.path = nil
	e.free = append(e.free, r)
}

// done is a request's server-side outcome. Served, the response starts
// its transfer over the path; killed by a host failure, the request
// leaves the in-flight count and counts killed.
func (r *request) done(served bool) {
	e := r.e
	if !served {
		e.res.KilledJobs++
		e.liveReqs--
		e.release(r)
		return
	}
	tt := r.path.TransferTime(e.netRNG, r.payload)
	r.path.Begin()
	e.eng.Schedule(sim.Seconds(tt), "transfer", r.deliverFn)
}

// deliver completes a request's transfer: its latency since start is
// observed and it counts served.
func (r *request) deliver() {
	e := r.e
	r.path.End()
	lat := sim.ToSeconds(e.eng.Now() - r.start)
	e.res.Latency.Observe(lat, e.windowHist)
	e.res.Served++
	e.liveReqs--
	if r.egress {
		e.egressBytes += r.payload
	}
	e.release(r)
}

// sample records the minute's fleet size, load per server and P95.
func (e *engine) sample() {
	servers := 0
	load := 0.0
	if e.pubFleet != nil {
		servers += e.pubFleet.Desired()
	}
	if e.privFleet != nil {
		servers += e.privFleet.Desired()
	}
	active := e.pubCluster.Active() + e.privCluster.Active()
	if servers > 0 {
		load = float64(active) / float64(servers)
	}
	now := e.eng.Now()
	e.res.Servers.Add(now, float64(servers))
	e.res.Utilization.Add(now, load)
	e.res.P95Series.Add(now, e.windowHist.P95())
	e.windowHist.Reset()
}

// collect reads the substrates' ledgers into the Result, then bills a
// direct run or, inside a hybrid window, records what the window
// carries out. A shard is not billed: the merge bills the whole run.
func (e *engine) collect() (*Result, error) {
	res, dep := e.res, e.dep
	if dep.PublicDC != nil {
		res.VMHoursPublic = dep.PublicDC.VMHours()
	}
	if dep.PrivateDC != nil {
		res.VMHoursPrivate = dep.PrivateDC.VMHours()
	}
	if e.pubFleet != nil {
		res.PeakServers += e.pubFleet.Peak()
	}
	if e.privFleet != nil {
		res.PeakServers += e.privFleet.Peak()
	}
	res.EgressGB = e.egressBytes / 1e9
	if e.edge != nil {
		res.EgressGB += e.edge.OriginGB()
		res.CDNGB = e.edge.ServedGB()
		res.CDNHitRatio = e.edge.Cache().HitRatio()
	}
	for _, s := range e.sessions {
		res.LostWork += s.LostWork()
	}
	res.NetAvailability = 1
	if fp := e.topo.LastMile.Failure(); fp != nil {
		res.NetAvailability = fp.Availability().Ratio()
	}
	if e.threat != nil {
		res.Breaches = e.threat.Breaches()
		res.SensitiveExposures = e.threat.SensitiveExposures()
		res.DataLossEvents = e.threat.DataLossEvents()
		res.BytesLost = e.threat.BytesLost()
	}

	res.Events = e.eng.Fired()
	if e.growthFit != nil {
		// Prefer the last stable fit: a storm's decay phase destabilizes
		// the trailing window, so the end-of-run Fit() rarely describes
		// what the policy actually provisioned from.
		fit := e.growthFit.LastStable()
		if !fit.Stable {
			fit = e.growthFit.Fit()
		}
		res.Fit = &fit
	}

	switch {
	case e.win != nil:
		// The requests still in flight at the closing seam are handed
		// back to the fluid side; billing happens once at the hybrid
		// level, over the whole horizon, not per window.
		res.CarriedOut = max(0, e.liveReqs)
	case e.sh == nil:
		if err := res.bill(e.cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// reactivePolicy is the threshold control loop of the reactive scaler,
// and growth-fit's fallback until its fit stabilizes: scale out 4
// servers when the load per server passes 6, at most once per 2
// minutes, and in by one below 1.5. Both policies read this one value,
// so an unfittable workload costs growth-fit nothing over the reactive
// loop. startScaler sets the fleet bounds.
var reactivePolicy = scale.ReactiveConfig{
	Interval:      time.Minute,
	UpThreshold:   6,
	DownThreshold: 1.5,
	Step:          4,
	Cooldown:      2 * time.Minute,
}

// startScaler attaches the configured autoscaler to the elastic fleet
// and returns it plus its stop function (both nil for the fixed
// policy). min is the scale-in floor (the bootstrap size); share scales
// the scheduled/oracle plan's rate down to this shard's slice of the
// population (exactly 1.0 for unsharded runs). gen is the run's own
// workload generator.
func startScaler(eng *sim.Engine, cfg Config, gen *workload.Generator, meanSvc float64, target scale.Target, min, maxPublic int, share float64) (scale.Autoscaler, func(), error) {
	switch cfg.Scaler {
	case ScalerReactive:
		rc := reactivePolicy
		rc.Min, rc.Max = min, maxPublic
		s := scale.NewReactive(target, rc)
		return s, s.Start(eng), nil
	case ScalerScheduled:
		// The timetable knows the diurnal/calendar shape but not flash
		// crowds, enrollment growth or deadline storms — a scheduled
		// exam surprise or a course going viral is exactly what it
		// misses (table9's scheduled row shows the consequence).
		planGen, err := workload.NewGenerator(workload.Config{
			Students:          cfg.Students,
			ReqPerStudentHour: cfg.ReqPerStudentHour,
			Diurnal:           cfg.Diurnal,
			Calendar:          cfg.Calendar,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: scheduled scaler plan: %w", err)
		}
		plan := func(tod time.Duration) int {
			return deploy.ServersForPeak(planGen.Rate(tod)*share, meanSvc) + 1
		}
		s := scale.NewScheduled(target, plan, 5*time.Minute, 1, maxPublic)
		return s, s.Start(eng), nil
	case ScalerPredictive:
		s := scale.NewPredictive(target, scale.PredictiveConfig{
			Interval:  time.Minute,
			Lead:      5 * time.Minute,
			PerServer: 4,
			Min:       min,
			Max:       maxPublic,
		})
		return s, s.Start(eng), nil
	case ScalerGrowthFit:
		// Lead = one VM boot (bootGrace covers the fleet's boot
		// distribution) plus a 5-minute guard, so projected capacity is
		// accepting before the projected demand lands.
		s := scale.NewGrowthFit(target, scale.GrowthFitConfig{
			Interval:    time.Minute,
			Lead:        bootGrace + 5*time.Minute,
			MeanService: meanSvc,
			Min:         min,
			Max:         maxPublic,
			Fallback:    reactivePolicy,
		})
		return s, s.Start(eng), nil
	case ScalerOracle:
		// The oracle is scheduled from the true curve: the full
		// generator, growth and storms included — everything the
		// scheduled policy's timetable deliberately cannot see.
		plan := func(at time.Duration) int {
			return deploy.ServersForPeak(gen.Rate(at)*share, meanSvc) + 1
		}
		s := scale.NewOracle(target, plan, time.Minute, bootGrace+5*time.Minute, min, maxPublic)
		return s, s.Start(eng), nil
	default:
		return nil, nil, nil
	}
}

// bill prices r's measured consumption — public VM-hours, egress and
// CDN gigabytes, owned hosts — into its itemized Cost, for every run
// path. Storage is billed on cfg's asset inventory, built here and
// dropped after: shards split load, not content, so a merged run bills
// storage (and desktop seats) once, not K times.
func (r *Result) bill(cfg Config) error {
	months := cfg.Duration.Hours() / 730
	u := cost.Usage{Months: months}
	switch cfg.Kind {
	case deploy.Public:
		u.VMHoursOnDemand = r.VMHoursPublic
		u.EgressGB = r.EgressGB
		u.CDNGB = r.CDNGB
		u.StorageGBMonths = assetsFor(cfg).BytesAt(lms.OnPublic) / 1e9 * months
	case deploy.Private:
		u.PrivateHosts = r.PrivateHosts
	case deploy.Hybrid:
		u.VMHoursOnDemand = r.VMHoursPublic
		u.EgressGB = r.EgressGB
		u.CDNGB = r.CDNGB
		u.StorageGBMonths = assetsFor(cfg).BytesAt(lms.OnPublic) / 1e9 * months
		u.PrivateHosts = r.PrivateHosts
		u.HybridMonths = months
	case deploy.Desktop:
		u.DesktopStudents = cfg.Students
	}
	var err error
	r.Cost, err = cost.Bill(u, cost.DefaultRates())
	return err
}
