package experiments

import (
	"fmt"
	"time"

	"elearncloud/internal/core"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/migrate"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/security"
)

// Table1Merits quantifies the paper's §III merits 1-6 of cloud-based
// e-learning against the on-premise desktop baseline.
func Table1Merits(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	runs, err := scenario.NewBatch(seed).
		Add("cloud-semester", semester(seed, deploy.Public, collegeStudents)).
		Add("desktop-semester", semester(seed, deploy.Desktop, collegeStudents)).
		Add("cloud-steady", steadyTeaching(seed, deploy.Public)).
		Add("desktop-steady", steadyTeaching(seed, deploy.Desktop)).
		RunOn(pool)
	if err != nil {
		return nil, err
	}
	cloudFluid := runs.Result("cloud-semester")
	deskFluid := runs.Result("desktop-semester")
	cloudRun := runs.Result("cloud-steady")
	deskRun := runs.Result("desktop-steady")

	// §III.6 improbability: annual sensitive-asset risk.
	cloudAssets := lms.NewInventory(scenario.CoursesFor(collegeStudents), collegeStudents, lms.AllAt(lms.OnPublic))
	deskAssets := lms.NewInventory(scenario.CoursesFor(collegeStudents), collegeStudents, lms.AllAt(lms.OnPrivate))
	cloudRisk := security.ConfigFor(deploy.Public).AnnualSensitiveRisk(cloudAssets)
	deskRisk := security.ConfigFor(deploy.Desktop).AnnualSensitiveRisk(deskAssets)

	t := metrics.NewTable(
		"Table 1: cloud e-learning merits vs desktop baseline (paper §III, 2000 students)",
		"merit (paper §)", "desktop labs", "cloud (public)", "cloud wins?")
	row := func(name, desk, cloud string, wins bool) {
		verdict := "yes"
		if !wins {
			verdict = "no"
		}
		t.AddRow(name, desk, cloud, verdict)
	}
	cd := deskFluid.CostPerStudentMonth(collegeStudents)
	cc := cloudFluid.CostPerStudentMonth(collegeStudents)
	row("1 lower costs ($/student/mo)",
		fmt.Sprintf("%.2f", cd), fmt.Sprintf("%.2f", cc), cc < cd)
	row("2 improved performance (session start)",
		core.SessionStartTime(deploy.Desktop).String(),
		core.SessionStartTime(deploy.Public).String(),
		core.SessionStartTime(deploy.Public) < core.SessionStartTime(deploy.Desktop))
	row("2 improved performance (p95 request)",
		metrics.FmtMillis(deskRun.Latency.P95()),
		metrics.FmtMillis(cloudRun.Latency.P95()),
		cloudRun.Latency.P95() < deskRun.Latency.P95())
	row("3 instant software updates (fleet refresh)",
		core.UpdatePropagation(deploy.Desktop, collegeStudents, 2).Round(time.Hour).String(),
		core.UpdatePropagation(deploy.Public, collegeStudents, 2).String(),
		true)
	row("4 increased data reliability (loss per crash)",
		core.ExpectedCrashLoss(deploy.Desktop).String(),
		core.ExpectedCrashLoss(deploy.Public).String(),
		core.ExpectedCrashLoss(deploy.Public) < core.ExpectedCrashLoss(deploy.Desktop))
	row("5 device independence (continuity)",
		metrics.FmtPercent(core.DeviceContinuity(deploy.Desktop)),
		metrics.FmtPercent(core.DeviceContinuity(deploy.Public)),
		true)
	row("6 improved improbability (asset risk/yr)",
		fmt.Sprintf("%.2f", deskRisk), fmt.Sprintf("%.2f", cloudRisk), cloudRisk < deskRisk)
	t.AddNote("seed=%d; desktop=locally installed LMS on lab PCs; request p95 includes WAN for cloud", seed)
	t.AddNote("merit 1 reflects 2013 egress pricing: at this scale video egress dominates the cloud bill")
	return t, nil
}

// Table2Risks quantifies the paper's §III risks: network dependence,
// security exposure, and portability lock-in, per deployment model.
func Table2Risks(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Table 2: cloud e-learning risks by deployment model (paper §III)",
		"risk", "public", "private", "hybrid")

	// Risk 1 — network: a week on flaky rural DSL (long enough that the
	// MTBF-2d failure process actually fires). One job per model.
	const trackedSessions = 100
	batch := scenario.NewBatch(seed)
	for _, kind := range deploy.Kinds() {
		batch.Add("rural-week/"+kind.String(), scenario.Config{
			Seed:              seed,
			Kind:              kind,
			Students:          300,
			ReqPerStudentHour: 15,
			Duration:          7 * 24 * time.Hour,
			Access:            network.RuralDSL,
			TrackedSessions:   trackedSessions,
		})
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	lost := make(map[deploy.Kind]string)
	offline := make(map[deploy.Kind]string)
	for _, kind := range deploy.Kinds() {
		res := runs.Result("rural-week/" + kind.String())
		perSession := res.LostWork / trackedSessions / 7 // per day
		lost[kind] = perSession.Round(time.Second).String()
		offline[kind] = metrics.FmtPercent(res.ErrorRate())
	}
	t.AddRow("network: lost work /session/day (rural DSL)",
		lost[deploy.Public], lost[deploy.Private], lost[deploy.Hybrid])
	t.AddRow("network: failed requests (rural DSL)",
		offline[deploy.Public], offline[deploy.Private], offline[deploy.Hybrid])

	// Risk 2 — security: analytic annual sensitive risk.
	risk := make(map[deploy.Kind]string)
	for _, kind := range deploy.Kinds() {
		assets := lms.NewInventory(scenario.CoursesFor(collegeStudents), collegeStudents, deploy.Place(kind))
		risk[kind] = fmt.Sprintf("%.2f/yr", security.ConfigFor(kind).AnnualSensitiveRisk(assets))
	}
	t.AddRow("security: sensitive-asset compromise rate",
		risk[deploy.Public], risk[deploy.Private], risk[deploy.Hybrid])

	// Risk 3 — portability: cost of leaving the current arrangement.
	mig := make(map[deploy.Kind]string)
	for _, kind := range deploy.Kinds() {
		assets := lms.NewInventory(scenario.CoursesFor(collegeStudents), collegeStudents, deploy.Place(kind))
		plan, err := migrate.NewPlan(migrate.LockinProfile{
			Index:     kind.DefaultLockinIndex(),
			DataBytes: assets.BytesAt(lms.OnPublic) + 0.2*assets.BytesAt(lms.OnPrivate),
		})
		if err != nil {
			return nil, err
		}
		mig[kind] = metrics.FmtDollars(plan.TotalUSD())
	}
	t.AddRow("portability: cost to exit provider",
		mig[deploy.Public], mig[deploy.Private], mig[deploy.Hybrid])
	t.AddNote("seed=%d; network rows simulate 7 days of rural DSL (MTBF 2d, MTTR 30m)", seed)
	t.AddNote("network risk is model-independent: every cloud model needs the same last mile")
	return t, nil
}

// Table3Matrix reproduces the paper's central artifact: the deployment
// comparison matrix "articulated exhaustively" (§V), at college scale.
func Table3Matrix(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	in, err := core.MeasureInputs(core.MeasureConfig{
		Seed: seed, Students: collegeStudents, DESStudents: desStudents,
		Pool: pool,
	})
	if err != nil {
		return nil, err
	}
	sc, err := core.BuildScorecard(in)
	if err != nil {
		return nil, err
	}
	t := sc.Table()
	t.AddNote("seed=%d; measured at %d students; raw: cost $/st/mo pub=%.2f priv=%.2f hyb=%.2f",
		seed, collegeStudents,
		in.CostPerStudentMonth[deploy.Public],
		in.CostPerStudentMonth[deploy.Private],
		in.CostPerStudentMonth[deploy.Hybrid])
	t.AddNote("raw risk/yr pub=%.2f priv=%.2f hyb=%.2f; raw migration $ pub=%.0f priv=%.0f hyb=%.0f",
		in.AnnualSensitiveRisk[deploy.Public],
		in.AnnualSensitiveRisk[deploy.Private],
		in.AnnualSensitiveRisk[deploy.Hybrid],
		in.MigrationUSD[deploy.Public],
		in.MigrationUSD[deploy.Private],
		in.MigrationUSD[deploy.Hybrid])
	return t, nil
}

// Table4HybridAblation sweeps the hybrid "distribution of units" policy
// (§IV.C): private share and pinning strictness, under an exam crowd.
func Table4HybridAblation(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Table 4: hybrid unit-distribution ablation under a 10x exam crowd (paper §IV.C)",
		"policy", "p99 latency", "error rate", "pinning violations", "sensitive risk/yr")
	type variant struct {
		name   string
		share  float64
		strict bool
	}
	variants := []variant{
		{"strict pin, 25% private", 0.25, true},
		{"strict pin, 50% private", 0.50, true},
		{"strict pin, 75% private", 0.75, true},
		{"relaxed pin, 50% private", 0.50, false},
		{"relaxed pin, 25% private", 0.25, false},
	}
	batch := scenario.NewBatch(seed)
	for _, v := range variants {
		cfg := examDay(seed, deploy.Hybrid, scenario.ScalerReactive)
		cfg.HybridPolicy = &deploy.HybridPolicy{PrivateBaseShare: v.share}
		cfg.StrictPinning = v.strict
		batch.Add(v.name, cfg)
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		res := runs.Result(v.name)
		// Risk grows with the share of sensitive traffic that ever
		// touches the public side: approximate by realized violations.
		assets := lms.NewInventory(scenario.CoursesFor(desStudents), desStudents, deploy.Place(deploy.Hybrid))
		baseRisk := security.ConfigFor(deploy.Hybrid).AnnualSensitiveRisk(assets)
		violShare := 0.0
		if res.Served > 0 {
			violShare = float64(res.PolicyViolations) / float64(res.Served)
		}
		pubAssets := lms.NewInventory(scenario.CoursesFor(desStudents), desStudents, lms.AllAt(lms.OnPublic))
		pubRisk := security.ConfigFor(deploy.Public).AnnualSensitiveRisk(pubAssets)
		risk := baseRisk + violShare*(pubRisk-baseRisk)

		t.AddRow(v.name,
			metrics.FmtMillis(res.Latency.P99()),
			metrics.FmtPercent(res.ErrorRate()),
			fmt.Sprintf("%d", res.PolicyViolations),
			fmt.Sprintf("%.2f", risk))
	}
	t.AddNote("seed=%d; %d students, exam mix is ~78%% sensitive traffic", seed, desStudents)
	t.AddNote("strict pinning trades availability (errors) for confidentiality; relaxed trades the reverse")
	return t, nil
}

// Table5Autoscalers ablates elasticity policies on the exam crowd
// (§III.2 improved performance / §IV.A quickest solution).
func Table5Autoscalers(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Table 5: autoscaler ablation under a 10x exam crowd (public model)",
		"policy", "p95", "p99", "error rate", "peak servers", "VM-hours")
	scalers := []scenario.ScalerKind{
		scenario.ScalerFixed, scenario.ScalerReactive,
		scenario.ScalerScheduled, scenario.ScalerPredictive,
	}
	batch := scenario.NewBatch(seed)
	for _, sk := range scalers {
		batch.Add(sk.String(), examDay(seed, deploy.Public, sk))
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	for _, sk := range scalers {
		res := runs.Result(sk.String())
		t.AddRow(sk.String(),
			metrics.FmtMillis(res.Latency.P95()),
			metrics.FmtMillis(res.Latency.P99()),
			metrics.FmtPercent(res.ErrorRate()),
			res.PeakServers,
			fmt.Sprintf("%.1f", res.VMHoursPublic))
	}
	t.AddNote("seed=%d; fixed = fleet sized for peak up front (private-cloud style)", seed)
	t.AddNote("scheduled follows the timetable but cannot see the crowd multiplier")
	return t, nil
}

// Table6Advisor reproduces §II's "customers can choose one of cloud
// deployment models, depending on their requirements": rankings per
// institution profile, each measured at its own scale.
func Table6Advisor(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Table 6: advisor recommendations per institution profile",
		"profile", "students", "1st", "2nd", "3rd", "top score")
	profiles := []core.Profile{core.RuralSchool, core.MidCollege, core.NationalPlatform}
	// Each profile is measured at its own scale — independent work, so
	// fan the profiles out and let each measurement batch nest on the
	// same pool: the pool's tokens span both levels, so a core freed
	// when the profile loop drains is claimed by a still-running
	// measurement batch. Normalize a nil pool here, not per level —
	// otherwise each nested MeasureInputs would build its own one-off
	// pool and multiply the two levels' concurrency instead of sharing
	// one cap.
	if pool == nil {
		pool = scenario.NewPool(0)
	}
	recs := make([][]core.Recommendation, len(profiles))
	err := pool.ForEach(len(profiles), func(i int) error {
		p := profiles[i]
		in, err := core.MeasureInputs(core.MeasureConfig{
			Seed: seed, Students: p.Students, DESStudents: min(p.Students, desStudents),
			Pool: pool,
		})
		if err != nil {
			return err
		}
		sc, err := core.BuildScorecard(in)
		if err != nil {
			return err
		}
		recs[i], err = sc.Recommend(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		t.AddRow(p.Name, p.Students,
			recs[i][0].Kind.String(), recs[i][1].Kind.String(), recs[i][2].Kind.String(),
			fmt.Sprintf("%.1f", recs[i][0].Total))
	}
	t.AddNote("seed=%d; each profile measured at its own scale (cost ordering is scale-dependent)", seed)
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
