package experiments

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/migrate"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/security"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// Figure1Workload renders the workload generator's shape: the diurnal
// arrival-rate curve (hourly) and the semester week multipliers.
func Figure1Workload(seed uint64, _ *scenario.Pool) (*metrics.Table, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Students:          collegeStudents,
		ReqPerStudentHour: 50,
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		"Figure 1: e-learning load shape (2000 students, 50 req/student-h)",
		"hour", "arrival rate (req/s)", "| week", "kind", "multiplier")
	sem := workload.StandardSemester()
	for h := 0; h < 24; h++ {
		weekCol, kindCol, multCol := "", "", ""
		if h < sem.Len() {
			w := sem.WeekAt(time.Duration(h) * 7 * 24 * time.Hour)
			weekCol = fmt.Sprintf("%d", h+1)
			kindCol = w.Kind.String()
			multCol = fmt.Sprintf("%.2f", w.Mult)
		}
		t.AddRow(
			fmt.Sprintf("%02d:00", h),
			fmt.Sprintf("%.1f", gen.Rate(time.Duration(h)*time.Hour)),
			weekCol, kindCol, multCol)
	}
	t.AddNote("seed=%d (shape is deterministic); peak hour 20:00, peak week = finals (2.4x)", seed)
	// Empirical check: generated arrivals match the analytic volume
	// (students x req/student-hour x 24h, diurnal mean ~1).
	n := gen.Generate(sim.NewRNG(seed), 0, 24*time.Hour, func(workload.Arrival) {})
	want := float64(collegeStudents) * 50 * 24 * workload.CampusDiurnal().Mean()
	t.AddNote("generated %d arrivals over one day (analytic expectation ~%.0f)", n, want)
	return t, nil
}

// Figure2ExamSpike renders per-minute P95 latency through an exam flash
// crowd for the three models (§IV.A scalability).
func Figure2ExamSpike(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	batch := scenario.NewBatch(seed)
	for _, kind := range deploy.Kinds() {
		batch.Add("exam/"+kind.String(), examDay(seed, kind, scenario.ScalerReactive))
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	series := make(map[deploy.Kind][]metrics.Point)
	servers := make(map[deploy.Kind][]metrics.Point)
	for _, kind := range deploy.Kinds() {
		res := runs.Result("exam/" + kind.String())
		series[kind] = res.P95Series.Downsample(5 * time.Minute).Points()
		servers[kind] = res.Servers.Downsample(5 * time.Minute).Points()
	}
	t := metrics.NewTable(
		"Figure 2: P95 latency through a 10x exam crowd (crowd 00:30-01:30)",
		"t", "public p95", "private p95", "hybrid p95", "public servers", "hybrid servers")
	n := len(series[deploy.Public])
	for i := 0; i < n; i++ {
		row := []any{series[deploy.Public][i].At.Round(time.Minute).String()}
		for _, kind := range deploy.Kinds() {
			if i < len(series[kind]) {
				row = append(row, metrics.FmtMillis(series[kind][i].Value))
			} else {
				row = append(row, "")
			}
		}
		for _, kind := range []deploy.Kind{deploy.Public, deploy.Hybrid} {
			if i < len(servers[kind]) {
				row = append(row, fmt.Sprintf("%.0f", servers[kind][i].Value))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("seed=%d; private fleet is peak-sized and flat; public/hybrid scale reactively", seed)
	return t, nil
}

// Figure3CostCrossover sweeps institution size and reports monthly cost
// per student per model — the paper's §V cost trade-off, with the
// public/private crossover located.
func Figure3CostCrossover(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 3: semester TCO per student vs institution size",
		"students", "public $/st/mo", "private $/st/mo", "hybrid $/st/mo", "desktop $/st/mo", "cheapest")
	populations := []int{200, 400, 600, 1000, 2000, 5000, 10000, 20000}
	allKinds := []deploy.Kind{deploy.Public, deploy.Private, deploy.Hybrid, deploy.Desktop}
	// 8 sizes x 4 models = 32 independent fluid runs: one job each.
	batch := scenario.NewBatch(seed)
	for _, n := range populations {
		for _, kind := range allKinds {
			batch.Add(fmt.Sprintf("%d/%s", n, kind), semester(seed, kind, n))
		}
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	var crossover int
	for _, n := range populations {
		costs := make(map[deploy.Kind]float64, 4)
		for _, kind := range allKinds {
			res := runs.Result(fmt.Sprintf("%d/%s", n, kind))
			costs[kind] = res.CostPerStudentMonth(n)
		}
		cheapest := deploy.Public
		for _, kind := range []deploy.Kind{deploy.Private, deploy.Hybrid, deploy.Desktop} {
			if costs[kind] < costs[cheapest] {
				cheapest = kind
			}
		}
		if crossover == 0 && costs[deploy.Private] < costs[deploy.Public] {
			crossover = n
		}
		t.AddRow(n,
			fmt.Sprintf("%.2f", costs[deploy.Public]),
			fmt.Sprintf("%.2f", costs[deploy.Private]),
			fmt.Sprintf("%.2f", costs[deploy.Hybrid]),
			fmt.Sprintf("%.2f", costs[deploy.Desktop]),
			cheapest.String())
	}
	if crossover > 0 {
		t.AddNote("public/private crossover at ~%d students (2013 egress pricing makes video-heavy e-learning expensive to rent at scale)", crossover)
	}
	t.AddNote("seed=%d; standard 18-week semester; desktop row = lab PCs, no LMS hosting at all", seed)
	return t, nil
}

// Figure4Utilization renders the §IV.B underutilization argument: weekly
// private-fleet utilization vs the elastic fleet's size across a
// semester.
func Figure4Utilization(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	runs, err := scenario.NewBatch(seed).
		Add("private-semester", semester(seed, deploy.Private, collegeStudents)).
		Add("public-semester", semester(seed, deploy.Public, collegeStudents)).
		RunOn(pool)
	if err != nil {
		return nil, err
	}
	priv := runs.Result("private-semester")
	pub := runs.Result("public-semester")
	week := 7 * 24 * time.Hour
	privSeries := priv.Rate.Downsample(week).Points()
	pubServers := pub.Servers.Downsample(week).Points()
	privCap := float64(priv.PeakServers)
	meanSvc := lms.TeachingMix().MeanService(lms.DefaultCatalog())

	t := metrics.NewTable(
		"Figure 4: private fleet utilization vs elastic fleet size, by semester week",
		"week", "offered load (req/s)", "private util", "public servers (mean)")
	sem := workload.StandardSemester()
	for i, p := range privSeries {
		util := 0.0
		if privCap > 0 {
			// Utilization = servers' worth of offered work over the
			// fixed fleet (same sizing arithmetic as the fluid model).
			util = p.Value * meanSvc / deploy.TargetUtil / privCap
			if util > 1 {
				util = 1
			}
		}
		pubMean := ""
		if i < len(pubServers) {
			pubMean = fmt.Sprintf("%.1f", pubServers[i].Value)
		}
		t.AddRow(
			fmt.Sprintf("%d (%s)", i+1, sem.WeekAt(time.Duration(i)*week).Kind),
			fmt.Sprintf("%.1f", p.Value),
			metrics.FmtPercent(util),
			pubMean)
	}
	t.AddNote("seed=%d; private fleet fixed at %d servers (peak-sized); mean private util %.0f%%",
		seed, priv.PeakServers, priv.MeanPrivateUtil*100)
	return t, nil
}

// Figure5NetworkRisk sweeps last-mile reliability over a simulated week
// and reports lost work and failed requests (§III risk 1).
func Figure5NetworkRisk(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	const horizon = 7 * 24 * time.Hour
	const trackedSessions = 100
	t := metrics.NewTable(
		"Figure 5: lost work vs last-mile reliability (public cloud, one week)",
		"last-mile MTBF", "availability", "disconnects", "lost work /session/day", "failed requests")
	profiles := []struct {
		name string
		mtbf float64 // hours
	}{
		{"6h", 6}, {"12h", 12}, {"1d", 24}, {"2d", 48}, {"7d", 168}, {"30d", 720},
	}
	batch := scenario.NewBatch(seed)
	for _, p := range profiles {
		batch.Add("sweep-"+p.name, scenario.Config{
			Seed:              seed,
			Kind:              deploy.Public,
			Students:          300,
			ReqPerStudentHour: 15,
			Duration:          horizon,
			TrackedSessions:   trackedSessions,
			Access: network.AccessProfile{
				Name: "sweep-" + p.name, LatencyMean: 0.03, LatencySigma: 0.4,
				Mbps: 10, MTBF: p.mtbf * 3600, MTTR: 1800,
			},
		})
	}
	// The on-premise LAN reference: immune to last-mile weather.
	batch.Add("campus-lan", scenario.Config{
		Seed:              seed,
		Kind:              deploy.Private,
		Students:          300,
		ReqPerStudentHour: 15,
		Duration:          horizon,
		TrackedSessions:   trackedSessions,
		Access:            network.CampusLAN,
	})
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		res := runs.Result("sweep-" + p.name)
		perSessionDay := res.LostWork / trackedSessions / 7
		t.AddRow(p.name,
			metrics.FmtPercent(res.NetAvailability),
			res.Disconnects,
			perSessionDay.Round(time.Second).String(),
			metrics.FmtPercent(res.ErrorRate()))
	}
	res := runs.Result("campus-lan")
	t.AddRow("campus LAN (private)", metrics.FmtPercent(res.NetAvailability),
		res.Disconnects, "0s", metrics.FmtPercent(res.ErrorRate()))
	t.AddNote("seed=%d; MTTR fixed at 30m; autosave every 5m bounds per-disconnect loss", seed)
	return t, nil
}

// Figure6Security sweeps the threat environment: breach exposure versus
// shared-infrastructure attack surface, and data loss versus physical
// damage rate (§III risk 2, §IV.B).
func Figure6Security(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 6: security incidents over 10 simulated years (2000 students)",
		"scenario", "model", "breaches", "sensitive exposures", "loss events", "TB lost")
	horizon := 10 * 365 * 24 * time.Hour

	// These are threat-model engine runs, not scenario.Run jobs, so they
	// fan out through ForEach: each spec owns one row slot and builds its
	// engine locally, keeping results independent of scheduling.
	type spec struct {
		label string
		kind  deploy.Kind
		cfg   security.Config
	}
	var specs []spec
	for _, kind := range deploy.Kinds() {
		specs = append(specs, spec{"baseline threat env", kind, security.ConfigFor(kind)})
	}
	// Hostile environment: 3x attack rate and double breach probability.
	for _, kind := range deploy.Kinds() {
		cfg := security.ConfigFor(kind)
		cfg.AttackRatePerMonth *= 3
		cfg.PublicBreachProb *= 2
		specs = append(specs, spec{"hostile threat env", kind, cfg})
	}
	// Fragile campus: flood-prone server room, no offsite backup.
	fragile := security.ConfigFor(deploy.Private)
	fragile.PhysicalMTBFYears = 4
	specs = append(specs, spec{"fragile server room", deploy.Private, fragile})
	// Same room, with offsite backup.
	backed := fragile
	backed.OffsiteBackup = true
	specs = append(specs, spec{"fragile room + offsite backup", deploy.Private, backed})

	rows := make([][]any, len(specs))
	err := pool.ForEach(len(specs), func(i int) error {
		s := specs[i]
		eng := sim.NewEngine(seed)
		assets := lms.NewInventory(scenario.CoursesFor(collegeStudents), collegeStudents, deploy.Place(s.kind))
		m, err := security.NewThreatModel(eng, s.cfg, assets)
		if err != nil {
			return err
		}
		stop := m.Start()
		defer stop()
		eng.Run(horizon)
		rows[i] = []any{s.label, s.kind.String(), m.Breaches(), m.SensitiveExposures(),
			m.DataLossEvents(), fmt.Sprintf("%.1f", m.BytesLost()/1e12)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("seed=%d; exposures = sensitive assets touched by breaches; private never breaches publicly but can burn down", seed)
	t.AddNote("counts are one 10-year realization; hybrid records more (harmless) breach events than public because attacks probe both locations")
	return t, nil
}

// Figure7Lockin sweeps proprietary-interface adoption and reports the
// migration bill (§III risk 3, §IV.A/§IV.C). The rightmost column marks
// where each model's typical adoption lands on the curve: that position,
// not the data footprint, is what makes public exits expensive and
// hybrid exits tolerable.
func Figure7Lockin(seed uint64, _ *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 7: cost to bring the system back in-house vs lock-in index",
		"lock-in index", "re-engineering", "egress", "total", "calendar time", "typical for")
	assets := lms.NewInventory(scenario.CoursesFor(collegeStudents), collegeStudents, lms.AllAt(lms.OnPublic))
	typical := map[float64]string{
		deploy.Private.DefaultLockinIndex(): "private",
		deploy.Hybrid.DefaultLockinIndex():  "hybrid",
		deploy.Public.DefaultLockinIndex():  "public",
	}
	for _, idx := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		plan, err := migrate.NewPlan(migrate.LockinProfile{
			Index: idx, DataBytes: assets.BytesAt(lms.OnPublic),
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", idx),
			metrics.FmtDollars(plan.ReengineerUSD),
			metrics.FmtDollars(plan.EgressUSD),
			metrics.FmtDollars(plan.TotalUSD()),
			plan.CalendarTime().Round(time.Hour).String(),
			typical[idx])
	}
	t.AddNote("seed=%d (analytic); 12 components, %.1f TB at the provider",
		seed, assets.BytesAt(lms.OnPublic)/1e12)
	t.AddNote("re-engineering dominates egress: lock-in is a software debt, not a data-gravity problem at this scale")
	return t, nil
}
