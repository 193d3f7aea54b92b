package scenario

import (
	"fmt"
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

// Run executes cfg at its Config.Fidelity and returns the measured,
// billed, audited Result. It is the package's one run path: it
// defaults cfg, runs the request-level engine (split into
// Config.Shards engines) or the fluid model with its DES windows
// (none at FidelityFluid), bills the Result once and returns the
// error of its Audit. The run's fan-out (shard engines, hybrid
// windows) rides p, which changes how fast the Result arrives, never
// what it is. A nil p is a one-off DefaultWorkers pool, made only when
// the run fans out.
func (p *Pool) Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if p == nil && (cfg.Fidelity == FidelityAuto || cfg.Fidelity == FidelityDES && cfg.Shards > 1) {
		p = NewPool(0)
	}
	var res *Result
	var err error
	if cfg.Fidelity == FidelityDES {
		res, err = shardedRun(cfg, p, nil)
	} else {
		res, err = runHybrid(cfg, p)
	}
	if err == nil {
		err = res.bill(cfg)
	}
	if err == nil {
		err = res.Audit()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Run is Pool.Run on a nil pool.
func Run(cfg Config) (*Result, error) { return (*Pool)(nil).Run(cfg) }

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
	spec := deploy.Spec{
		Kind:            cfg.Kind,
		ExpectedPeakRPS: peakRPS,
		MeanServiceSec:  meanSvc,
	}
	if cfg.HybridPolicy != nil {
		spec.Policy = *cfg.HybridPolicy
	}
	return spec
}

// assetsFor is cfg's asset inventory under deploy's placement rule.
func assetsFor(cfg Config) lms.Inventory {
	return lms.NewInventory(CoursesFor(cfg.Students), cfg.Students, deploy.Place(cfg.Kind))
}

// engine is one request-level run: the substrates build wires, the
// ledgers the request handlers keep, and what collect reads back.
type engine struct {
	cfg Config
	eng *sim.Engine
	// win, when non-nil, confines the run to one hybrid DES window.
	win *desWindow
	// lineSeed roots the access line's outages (network.BuildTopology).
	lineSeed uint64
	// endAt is where the run stops: the horizon, or the window's end.
	endAt time.Duration

	cat     *lms.Catalog
	dep     *deploy.Deployment
	topo    *network.Topology
	stream  *workload.ArrivalStream
	edge    *cdn.Edge
	threat  *security.ThreatModel
	session *lms.Session // stands for every tracked session
	stops   []func()

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
	// neither been delivered nor killed — the Result's InFlight, which
	// a hybrid window hands back across its closing seam. It is
	// maintained independently of the outcome counters so Audit's
	// conservation identity is a genuine cross-check, not an echo.
	liveReqs int
}

// request is the record of one admitted request, from admission to
// delivery. Records are pooled per engine, and each carries its
// callbacks as method values bound once when the record is created, so
// a request allocates nothing on its way through the engine. A record
// returns to the pool when admission is refused, when its response is
// delivered, or when a host failure kills it; one still in flight when
// the engine stops is dropped with it.
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
// win, when non-nil, restricts the engine to one hybrid DES window: the
// clock is warped to the window's start, the fleet warm-started at the
// fluid model's size, the queue seeded with synthetic backlog, and the
// run cut off at the window's end (see hybrid.go for the stitching
// rules). lineSeed roots the access line's outages: cfg.Seed for a
// direct engine, the run's seed for each shard of a sharded one.
func runEngine(cfg Config, win *desWindow, lineSeed uint64) (*Result, error) {
	e := &engine{cfg: cfg, eng: sim.NewEngine(cfg.Seed), win: win, lineSeed: lineSeed}
	if err := e.build(); err != nil {
		return nil, err
	}
	e.eng.Run(e.endAt)
	for _, stop := range e.stops {
		stop()
	}
	return e.collect(), nil
}

// build wires the deployment, network, fleets, autoscaler, CDN,
// sessions, failures and threats onto the engine and schedules the
// first arrival.
func (e *engine) build() error {
	cfg, eng, win := e.cfg, e.eng, e.win
	// startAt/endAt delimit this engine's slice of the horizon: the
	// whole run on the direct path, one DES window under FidelityAuto.
	// The clock warp makes every absolute-time consumer (calendar
	// lookups, diurnal shapes, scheduled scalers, the sampler) see true
	// virtual time without knowing about windows.
	startAt := time.Duration(0)
	e.endAt = cfg.Duration
	if win != nil {
		startAt, e.endAt = win.start, win.end
		if err := eng.StartAt(startAt); err != nil {
			return err
		}
	}
	e.cat = lms.DefaultCatalog()
	meanSvc := lms.TeachingMix().MeanService(e.cat)

	gen, err := genFor(cfg)
	if err != nil {
		return err
	}
	dep, err := deploy.Build(eng, specFor(cfg, gen.MaxRate(), meanSvc))
	if err != nil {
		return err
	}
	e.dep = dep
	e.topo = network.BuildTopology(eng, cfg.Access, e.lineSeed)

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
	e.pubCluster = lms.NewCluster()
	e.privCluster = lms.NewCluster()
	if dep.PublicDC != nil {
		initial, maxPublic := publicBounds(cfg, dep.Sizing)
		e.pubFleet = newFleet(eng, dep.PublicDC, e.pubCluster, maxPublic)
		// A hybrid DES window opens at the fleet the fluid model was
		// running when the window opened: the same autoscaler ran it up
		// to that instant.
		warm := initial
		if win != nil {
			warm = win.initServers
		}
		e.pubFleet.ScaleTo(warm)
		stop, fit, err := startScaler(eng, cfg, gen, meanSvc, e.pubFleet, initial, maxPublic)
		if err != nil {
			return err
		}
		if stop != nil {
			e.stops = append(e.stops, stop)
		}
		e.growthFit = fit
	}
	if dep.PrivateDC != nil {
		e.privFleet = newFleet(eng, dep.PrivateDC, e.privCluster, 0)
		e.privFleet.ScaleTo(dep.PrivateServers) // fixed fleet, sized up front
	}

	// --- CDN ---------------------------------------------------------------
	if cfg.EnableCDN && dep.PublicDC != nil {
		e.edge = cdn.NewEdge(CoursesFor(cfg.Students), eng.Stream("cdn"))
		if win != nil {
			// Mid-horizon windows see the cache warmth the fluid model's
			// analytic hit ratio assumed, not a cold (all-miss) edge —
			// the cold-CDN divergence regime PR 7's fuzzer pinned.
			e.edge.Warm()
		}
	}

	// --- arrivals ------------------------------------------------------------
	e.svcRNG, e.payRNG, e.netRNG = eng.Stream("service"), eng.Stream("payload"), eng.Stream("net")
	e.stream = gen.Stream(eng.Stream("workload"), startAt+bootGrace)
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
		backlogCluster := e.pubCluster
		if cfg.Kind == deploy.Private || dep.PublicDC == nil {
			backlogCluster = e.privCluster
		}
		eng.ScheduleAt(startAt+bootGrace, "hybrid-backlog", func() {
			for i := 0; i < win.backlog; i++ {
				if backlogCluster.Submit(meanSvc, backlogDone) {
					e.res.CarriedIn++
				}
			}
		})
	}

	// --- sessions and lost work ------------------------------------------
	// Every tracked session shares the access line and the autosave
	// timer, so one session, started at the engine's start, stands for
	// all of them; collect scales its loss by Config.TrackedSessions.
	if cfg.Kind != deploy.Desktop {
		e.session = lms.NewSession(startAt)
		e.stops = append(e.stops, eng.Every(cfg.AutosaveEvery, "autosave", func() {
			e.session.Autosave(eng.Now())
		}))
		if fp := e.topo.LastMile.Failure(); fp != nil {
			fp.OnChange(func(up bool) {
				if up {
					e.session.Reconnect(eng.Now())
					return
				}
				e.res.Disconnects++
				e.session.Disconnect(eng.Now())
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
		e.threat, err = security.NewThreatModel(eng, security.ConfigFor(cfg.Kind), assetsFor(cfg))
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

// collect reads the substrates' ledgers into the Result. Pool.Run
// bills the whole run.
func (e *engine) collect() *Result {
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
	if e.session != nil {
		res.LostWork = e.session.LostWork() * time.Duration(e.cfg.TrackedSessions)
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
	res.InFlight = e.liveReqs
	return res
}

// publicBounds returns a defaulted cfg's public fleet bounds, which
// both fidelities share: the bootstrap size, sized for the peak the
// fixed private fleet does not carry (a quarter of it, at least 2,
// under an autoscaler), and the cap, Config.MaxPublicServers or four
// times the peak fleet. The bootstrap size is also the scale-in floor:
// production fleets never drain below their baseline, or the first
// spike after a quiet night pays the full boot lag.
func publicBounds(cfg Config, sz deploy.Sizing) (initial, maxPublic int) {
	maxPublic = cfg.MaxPublicServers
	if maxPublic <= 0 {
		maxPublic = sz.ServersAtPeak * 4
	}
	initial = max(1, sz.ServersAtPeak-sz.PrivateServers)
	if cfg.Scaler != ScalerFixed {
		initial = max(2, (initial+3)/4)
	}
	return initial, maxPublic
}

// startScaler attaches the configured autoscaler to the elastic fleet
// and returns its stop function (nil for the fixed policy) and, under
// the growth-fit policy, the scaler whose fit the result reports. min
// is the scale-in floor (the bootstrap size). gen is the run's own
// workload generator.
func startScaler(eng *sim.Engine, cfg Config, gen *workload.Generator, meanSvc float64, target scale.Target, min, maxPublic int) (func(), *scale.GrowthFit, error) {
	// planOf sizes the fleet for g's rate at an absolute virtual time.
	planOf := func(g *workload.Generator) func(time.Duration) int {
		return func(at time.Duration) int {
			return deploy.ServersForPeak(g.Rate(at), meanSvc) + 1
		}
	}
	switch cfg.Scaler {
	case ScalerReactive:
		return scale.NewReactive(target, min, maxPublic).Start(eng), nil, nil
	case ScalerScheduled:
		// The timetable knows the diurnal and calendar shape but not
		// flash crowds, enrollment growth or deadline storms — a
		// scheduled exam surprise or a course going viral is exactly
		// what it misses (table9's scheduled row shows the
		// consequence).
		planGen, err := workload.NewGenerator(workload.Config{
			Students:          cfg.Students,
			ReqPerStudentHour: cfg.ReqPerStudentHour,
			Diurnal:           cfg.Diurnal,
			Calendar:          cfg.Calendar,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: scheduled scaler plan: %w", err)
		}
		return scale.NewPlanned(target, planOf(planGen), 5*time.Minute, 0, 1, maxPublic).Start(eng), nil, nil
	case ScalerPredictive:
		return scale.NewPredictive(target, meanSvc, min, maxPublic).Start(eng), nil, nil
	case ScalerGrowthFit:
		s := scale.NewGrowthFit(target, meanSvc, min, maxPublic)
		return s.Start(eng), s, nil
	case ScalerOracle:
		// The oracle is scheduled from the true curve: the full
		// generator, growth and storms included — everything the
		// scheduled policy's timetable deliberately cannot see.
		return scale.NewPlanned(target, planOf(gen), time.Minute, scale.Lead, min, maxPublic).Start(eng), nil, nil
	default:
		return nil, nil, nil
	}
}

// bill prices r's measured consumption — public VM-hours, egress and
// CDN gigabytes, owned hosts — into its itemized Cost; Pool.Run calls
// it once per run, at every fidelity. Storage is billed on cfg's asset
// inventory, built here and dropped after: shards split load, not
// content, so a merged run bills storage (and desktop seats) once, not
// K times.
func (r *Result) bill(cfg Config) error {
	months := cfg.Duration.Hours() / cost.HoursPerMonth
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
	r.Cost, err = cost.Bill(u)
	return err
}
