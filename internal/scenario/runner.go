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
	return runShard(cfg, nil)
}

// shardCtx tells runShard which slice of a sharded run it is: the
// partition built from the parent config, and this run's shard index.
// A nil shardCtx is the direct, unsharded path. win, when non-nil,
// restricts the engine to one hybrid DES window: the clock is warped
// to the window's start, the fleet warm-started at the fluid model's
// size, the queue seeded with synthetic backlog, and the run cut off
// at the window's end (see hybrid.go for the stitching rules).
type shardCtx struct {
	sh  *workload.Sharding
	k   int
	win *desWindow
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

// runShard executes one simulation engine: the whole scenario when sc is
// nil, or one shard's slice of it. A single-shard shardCtx multiplies
// every rate and sizing input by a share of exactly 1.0 and draws users
// from an identity member list, so its result is byte-identical to the
// direct path — the property the sharded tests and the CI scale lane pin.
func runShard(cfg Config, sc *shardCtx) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	var win *desWindow
	if sc != nil {
		win = sc.win
	}
	// startAt/endAt delimit this engine's slice of the horizon: the
	// whole run on the direct path, one DES window under HybridRun. The
	// clock warp makes every absolute-time consumer (calendar lookups,
	// diurnal shapes, scheduled scalers, the sampler) see true virtual
	// time without knowing about windows.
	startAt, endAt := time.Duration(0), cfg.Duration
	if win != nil {
		startAt, endAt = win.start, win.end
		if err := eng.Import(sim.State{Now: startAt}); err != nil {
			return nil, err
		}
	}
	cat, teaching := mixFor()

	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	// The shard's fleet absorbs only its share of the peak; capacity is
	// split proportionally to shard population (the documented
	// approximation — see ShardedRun).
	share := 1.0
	peakRPS := gen.MaxRate()
	if sc != nil {
		share = sc.sh.CapShare(sc.k)
		peakRPS = gen.MaxRate() * share
	}
	meanSvc := teaching.MeanService(cat)
	dep, err := deploy.Build(eng, deploy.Spec{
		Kind:            cfg.Kind,
		Students:        cfg.Students,
		Courses:         cfg.Courses,
		ExpectedPeakRPS: peakRPS,
		MeanServiceSec:  meanSvc,
		TargetUtil:      cfg.TargetUtil,
		Policy:          cfg.HybridPolicy,
	})
	if err != nil {
		return nil, err
	}
	topo := network.BuildTopology(eng, cfg.Access)

	res := &Result{
		Kind:         cfg.Kind,
		Scaler:       cfg.Scaler,
		Duration:     cfg.Duration,
		Latency:      metrics.DefaultLatency(),
		Servers:      metrics.NewTimeSeries("servers"),
		Utilization:  metrics.NewTimeSeries("load-per-server"),
		P95Series:    metrics.NewTimeSeries("p95-window"),
		PrivateHosts: dep.PrivateHosts,
	}
	windowHist := metrics.DefaultLatency()

	// --- fleets ---------------------------------------------------------
	pubCluster := lms.NewCluster("public")
	privCluster := lms.NewCluster("private")
	var pubFleet, privFleet *fleet
	var growthFit *scale.GrowthFit
	var stops []func()

	maxPublic := cfg.MaxPublicServers
	if maxPublic <= 0 {
		maxPublic = dep.ServersAtPeak * 4
	}
	privServers := dep.ServersAtPeak
	if cfg.Kind == deploy.Hybrid {
		privServers = int(math.Ceil(float64(dep.ServersAtPeak) * cfg.HybridPolicy.PrivateBaseShare))
		if privServers < 1 {
			privServers = 1
		}
	}

	if dep.PublicDC != nil {
		pubFleet = newFleet(eng, dep.PublicDC, pubCluster, dep.InstanceType.Spec(), maxPublic)
		pubTarget := dep.ServersAtPeak
		if cfg.Kind == deploy.Hybrid {
			pubTarget = dep.ServersAtPeak - privServers
			if pubTarget < 1 {
				pubTarget = 1
			}
		}
		initial := pubTarget
		if cfg.Scaler != ScalerFixed {
			initial = (pubTarget + 3) / 4
			if initial < 2 {
				initial = 2
			}
		}
		// A hybrid DES window warm-starts at the fleet the fluid model
		// was running when the window opened (its share of it, under
		// sharding) — the boundary-stitch that spares the scaler from
		// re-climbing out of the bootstrap floor mid-horizon. The floor
		// itself is unchanged: the scaler may still scale in to it.
		warm := initial
		if win != nil && cfg.Scaler != ScalerFixed {
			warm = int(math.Ceil(float64(win.initServers) * share))
			if warm < initial {
				warm = initial
			}
			if warm > maxPublic {
				warm = maxPublic
			}
		}
		pubFleet.ScaleTo(warm)
		// The bootstrap size is also the scale-in floor: production
		// fleets never drain below their baseline, or the first spike
		// after a quiet night pays the full boot lag.
		scaler, stop := startScaler(eng, cfg, meanSvc, pubFleet, initial, maxPublic, share)
		if stop != nil {
			stops = append(stops, stop)
		}
		growthFit, _ = scaler.(*scale.GrowthFit)
	}
	if dep.PrivateDC != nil {
		privFleet = newFleet(eng, dep.PrivateDC, privCluster, dep.PrivateSpec, 0)
		privFleet.ScaleTo(privServers) // fixed fleet, sized up front
	}

	// --- CDN ---------------------------------------------------------------
	var edge *cdn.Edge
	if cfg.EnableCDN && dep.PublicDC != nil {
		edge, err = cdn.NewEdge(cdn.DefaultConfig(cfg.Courses), eng.Stream("cdn"))
		if err != nil {
			return nil, err
		}
		if win != nil {
			// Mid-horizon windows see the cache warmth the fluid model's
			// analytic hit ratio assumed, not a cold (all-miss) edge —
			// the cold-CDN divergence regime PR 7's fuzzer pinned.
			edge.Warm(win.cdnWarm)
		}
	}

	// --- request handling ------------------------------------------------
	var (
		svcRNG      = eng.Stream("service")
		payRNG      = eng.Stream("payload")
		netRNG      = eng.Stream("net")
		egressBytes float64
		// liveReqs counts real requests admitted to a cluster whose
		// transfer has not yet completed — the queue mass a hybrid
		// window hands back across its closing seam (CarriedOut). It is
		// maintained independently of the outcome counters so the seam
		// conservation identity is a genuine cross-check, not an echo.
		liveReqs int
	)
	finish := func(path *network.Path, billEgress bool, payload float64, start sim.Time) func() {
		return func() {
			tt := path.TransferTime(netRNG, payload)
			release := path.BeginTransfer()
			eng.Schedule(sim.Seconds(tt), "transfer", func() {
				release()
				lat := sim.ToSeconds(eng.Now() - start)
				res.Latency.Observe(lat)
				windowHist.Observe(lat)
				res.Served++
				liveReqs--
				if billEgress {
					egressBytes += payload
				}
			})
		}
	}
	// admit wraps Cluster.Submit for real (non-backlog) requests so
	// liveReqs tracks every admission that finish will later settle.
	admit := func(cluster *lms.Cluster, service float64, done func()) bool {
		if cluster.Submit(service, done) {
			liveReqs++
			return true
		}
		return false
	}
	handle := func(a workload.Arrival) {
		spec := cat.Spec(a.Class)
		service := spec.Service.Sample(svcRNG)
		payload := spec.Payload.Sample(payRNG)

		if cfg.Kind == deploy.Desktop {
			// Locally installed application: no network, no queueing
			// across users, just a slower machine.
			res.Latency.Observe(service * desktopSlowdown)
			windowHist.Observe(service * desktopSlowdown)
			res.Served++
			return
		}

		path, cluster, public := topo.ToCloud, pubCluster, true
		if cfg.Kind == deploy.Private || (cfg.Kind == deploy.Hybrid && spec.Sensitive) {
			path, cluster, public = topo.ToCampus, privCluster, false
		}
		// Video served through the CDN: edge hits skip the backbone and
		// bill at CDN rates; misses pay the origin trip. The edge does
		// its own byte accounting either way.
		if edge != nil && public && a.Class == lms.VideoChunk {
			if !topo.ToEdge.Up() {
				res.Offline++
				return
			}
			hit := edge.Serve(payload)
			videoPath := topo.ToEdge
			if !hit {
				videoPath = topo.ToCloud
			}
			if admit(cluster, service, finish(videoPath, false, payload, eng.Now())) {
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
			privCluster.Load() > burstLoad && topo.ToCloud.Up() {
			if admit(pubCluster, service, finish(topo.ToCloud, true, payload, eng.Now())) {
				res.PolicyViolations++
				return
			}
		}
		if !path.Up() {
			res.Offline++
			return
		}
		if admit(cluster, service, finish(path, public, payload, eng.Now())) {
			return
		}
		// Admission failed. Hybrids may still burst sensitive work
		// publicly unless pinning is strict (Table 4's policy knob).
		if cfg.Kind == deploy.Hybrid && spec.Sensitive && !cfg.StrictPinning && topo.ToCloud.Up() {
			if admit(pubCluster, service, finish(topo.ToCloud, true, payload, eng.Now())) {
				res.PolicyViolations++
				return
			}
		}
		res.Rejected++
	}

	streamStart := startAt + bootGrace
	var stream *workload.ArrivalStream
	if sc != nil && sc.sh != nil {
		stream = sc.sh.Shard(sc.k).Stream(eng.Stream("workload"), streamStart)
	} else {
		stream = gen.Stream(eng.Stream("workload"), streamStart)
	}
	var pump func()
	pump = func() {
		a, ok := stream.Next(endAt)
		if !ok {
			return
		}
		eng.ScheduleAt(a.At, "arrival", func() {
			res.Arrivals++
			handle(a)
			pump()
		})
	}
	pump()

	// --- hybrid window backlog seeding -------------------------------------
	// The queue mass the fluid model says is in flight when the window
	// opens re-materializes as synthetic mean-service jobs, injected
	// once the warm fleet has booted. They settle liveness only — no
	// latency observation, no Served count, no egress — so the window's
	// statistics describe real requests, while its queues start at the
	// fluid state instead of empty.
	backlogDone := func() {} // shared no-op completion for synthetic jobs
	if win != nil && cfg.Kind != deploy.Desktop {
		n := int(math.Round(float64(win.backlog) * share))
		backlogCluster := pubCluster
		if cfg.Kind == deploy.Private || dep.PublicDC == nil {
			backlogCluster = privCluster
		}
		eng.ScheduleAt(startAt+bootGrace, "hybrid-backlog", func() {
			for i := 0; i < n; i++ {
				if backlogCluster.Submit(meanSvc, backlogDone) {
					res.CarriedIn++
				}
			}
		})
	}

	// --- sessions and lost work ------------------------------------------
	var sessions []*lms.Session
	if cfg.Kind != deploy.Desktop {
		sessions = make([]*lms.Session, cfg.TrackedSessions)
		for i := range sessions {
			sessions[i] = lms.NewSession(i, 0)
		}
		stops = append(stops, eng.Every(cfg.AutosaveEvery, "autosave", func() {
			for _, s := range sessions {
				s.Autosave(eng.Now())
			}
		}))
		if fp := topo.LastMile.Failure(); fp != nil {
			fp.OnChange(func(up bool) {
				now := eng.Now()
				if up {
					for _, s := range sessions {
						s.Reconnect(now)
					}
					return
				}
				res.Disconnects++
				for _, s := range sessions {
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
	if cfg.HostFailureAt > 0 && privFleet != nil && cfg.HostFailureAt >= startAt && cfg.HostFailureAt < endAt {
		eng.ScheduleAt(cfg.HostFailureAt, "host-failure", func() {
			res.KilledJobs += privFleet.FailHost(0)
			dep.PrivateDC.FailHost(0)
			eng.Schedule(cfg.HostRecoveryAfter, "host-repair", func() {
				dep.PrivateDC.RepairHost(0)
				privFleet.ScaleTo(privServers)
			})
		})
	}

	// --- threats ----------------------------------------------------------
	var threat *security.ThreatModel
	if cfg.EnableThreats {
		threat, err = security.NewThreatModel(eng, eng.Stream("threat"), threatConfig(cfg.Kind), dep.Assets)
		if err != nil {
			return nil, err
		}
		stops = append(stops, threat.Start())
	}

	// --- periodic sampling -------------------------------------------------
	stops = append(stops, eng.Every(time.Minute, "sample", func() {
		servers := 0
		load := 0.0
		if pubFleet != nil {
			servers += pubFleet.Desired()
		}
		if privFleet != nil {
			servers += privFleet.Desired()
		}
		active := pubCluster.Active() + privCluster.Active()
		if servers > 0 {
			load = float64(active) / float64(servers)
		}
		res.Servers.Add(eng.Now(), float64(servers))
		res.Utilization.Add(eng.Now(), load)
		res.P95Series.Add(eng.Now(), windowHist.P95())
		windowHist.Reset()
	}))

	// --- run ---------------------------------------------------------------
	if err := eng.Run(endAt); err != nil {
		return nil, fmt.Errorf("scenario: engine: %w", err)
	}
	for _, stop := range stops {
		stop()
	}

	// --- finalize ------------------------------------------------------------
	if dep.PublicDC != nil {
		res.VMHoursPublic = dep.PublicDC.VMHours()
	}
	if dep.PrivateDC != nil {
		res.VMHoursPrivate = dep.PrivateDC.VMHours()
	}
	if pubFleet != nil {
		res.PeakServers += pubFleet.Peak()
	}
	if privFleet != nil {
		res.PeakServers += privFleet.Peak()
	}
	res.EgressGB = egressBytes / 1e9
	if edge != nil {
		res.EgressGB += edge.OriginGB()
		res.CDNGB = edge.ServedGB()
		res.CDNHitRatio = edge.Cache().HitRatio()
	}
	for _, s := range sessions {
		res.LostWork += s.LostWork()
	}
	res.NetAvailability = 1
	if fp := topo.LastMile.Failure(); fp != nil {
		res.NetAvailability = fp.Availability().Ratio()
	}
	if threat != nil {
		res.Breaches = threat.Breaches()
		res.SensitiveExposures = threat.SensitiveExposures()
		res.DataLossEvents = threat.DataLossEvents()
		res.BytesLost = threat.BytesLost()
	}

	res.Events = eng.Fired()
	if growthFit != nil {
		// Prefer the last stable fit: a storm's decay phase destabilizes
		// the trailing window, so the end-of-run Fit() rarely describes
		// what the policy actually provisioned from.
		fit := growthFit.LastStable()
		if !fit.Stable {
			fit = growthFit.Fit()
		}
		res.Fit = &fit
	}

	if win != nil {
		// The requests still in flight at the closing seam are handed
		// back to the fluid side; billing happens once at the hybrid
		// level, over the whole horizon, not per window.
		res.CarriedOut = liveReqs
		if res.CarriedOut < 0 {
			res.CarriedOut = 0
		}
		return res, nil
	}

	res.Cost, err = billRun(cfg, dep.Assets, dep.PrivateHosts, res)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// startScaler attaches the configured autoscaler to the elastic fleet
// and returns it plus its stop function (both nil for the fixed
// policy). min is the scale-in floor (the bootstrap size); share scales
// the scheduled/oracle plan's rate down to this shard's slice of the
// population (exactly 1.0 for unsharded runs).
func startScaler(eng *sim.Engine, cfg Config, meanSvc float64, target scale.Target, min, maxPublic int, share float64) (scale.Autoscaler, func()) {
	switch cfg.Scaler {
	case ScalerReactive:
		s := scale.NewReactive(target, scale.ReactiveConfig{
			Interval:      time.Minute,
			UpThreshold:   6,
			DownThreshold: 1.5,
			Step:          4,
			Min:           min,
			Max:           maxPublic,
			Cooldown:      2 * time.Minute,
		})
		return s, s.Start(eng)
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
			return nil, nil
		}
		plan := func(tod time.Duration) int {
			return deploy.ServersForPeak(planGen.Rate(tod)*share, meanSvc, cfg.TargetUtil) + 1
		}
		s := scale.NewScheduled(target, plan, 5*time.Minute, 1, maxPublic)
		return s, s.Start(eng)
	case ScalerPredictive:
		s := scale.NewPredictive(target, scale.PredictiveConfig{
			Interval:  time.Minute,
			Lead:      5 * time.Minute,
			PerServer: 4,
			Min:       min,
			Max:       maxPublic,
		})
		return s, s.Start(eng)
	case ScalerGrowthFit:
		// Lead = one VM boot (bootGrace covers the fleet's boot
		// distribution) plus a 5-minute guard, so projected capacity is
		// accepting before the projected demand lands.
		s := scale.NewGrowthFit(target, scale.GrowthFitConfig{
			Interval:    time.Minute,
			Lead:        bootGrace + 5*time.Minute,
			MeanService: meanSvc,
			Util:        cfg.TargetUtil,
			Min:         min,
			Max:         maxPublic,
			Fallback: scale.ReactiveConfig{
				UpThreshold:   6,
				DownThreshold: 1.5,
				Step:          4,
				Cooldown:      2 * time.Minute,
			},
		})
		return s, s.Start(eng)
	case ScalerOracle:
		// The oracle is scheduled from the true curve: the full
		// generator, growth and storms included — everything the
		// scheduled policy's timetable deliberately cannot see.
		planGen, err := genFor(cfg)
		if err != nil {
			return nil, nil
		}
		plan := func(at time.Duration) int {
			return deploy.ServersForPeak(planGen.Rate(at)*share, meanSvc, cfg.TargetUtil) + 1
		}
		s := scale.NewOracle(target, plan, time.Minute, bootGrace+5*time.Minute, min, maxPublic)
		return s, s.Start(eng)
	default:
		return nil, nil
	}
}

// billRun converts measured consumption into the itemized bill. assets
// and privateHosts come from the run's deployment on the direct path;
// a sharded merge instead rebills against the full-scenario asset store
// and the summed host count, because per-shard deployments each hold a
// full asset copy that must be billed once, not K times.
func billRun(cfg Config, assets *lms.AssetStore, privateHosts int, res *Result) (cost.Report, error) {
	months := cfg.Duration.Hours() / 730
	u := cost.Usage{Months: months}
	switch cfg.Kind {
	case deploy.Public:
		u.VMHoursOnDemand = res.VMHoursPublic
		u.EgressGB = res.EgressGB
		u.CDNGB = res.CDNGB
		u.StorageGBMonths = assets.BytesAt(lms.OnPublic) / 1e9 * months
	case deploy.Private:
		u.PrivateHosts = privateHosts
	case deploy.Hybrid:
		u.VMHoursOnDemand = res.VMHoursPublic
		u.EgressGB = res.EgressGB
		u.CDNGB = res.CDNGB
		u.StorageGBMonths = assets.BytesAt(lms.OnPublic) / 1e9 * months
		u.PrivateHosts = privateHosts
		u.HybridMonths = months
	case deploy.Desktop:
		u.DesktopStudents = cfg.Students
	}
	return cost.Bill(u, cost.DefaultRates())
}
