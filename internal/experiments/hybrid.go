package experiments

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// This file holds the hybrid-fidelity experiment: table9's 10-week
// 50k→500k MOOC course re-run at scenario.FidelityAuto, which
// integrates the quiet weeks with the fluid model and drops into
// request-level DES only inside the course's burst windows (a launch
// join spike and two assignment deadline storms). The table puts the
// hybrid artifact next to the whole-horizon fluid run and a pure-DES
// spot-check of one planned window, so the agreement error and the
// event-count speedup are both in the committed golden.

// moocStormCourse is table9's course with the bursts that force DES
// windows: a live launch session early in week 1 and assignment
// deadlines on days 3 and 5, while enrollment is still in the logistic
// foothills — the regime where request-level fidelity is affordable
// and the fluid model's storm response is least trustworthy.
func moocStormCourse(seed uint64) scenario.Config {
	day := 24 * time.Hour
	cfg := moocCourse(scenario.SeedFor(seed, "hybrid/course"), deploy.Public)
	cfg.Fidelity = scenario.FidelityAuto
	cfg.Scaler = scenario.ScalerReactive
	cfg.Joins = []workload.JoinStorm{{
		Start: 2*day + 18*time.Hour, Window: 30 * time.Minute, PeakMult: 5,
	}}
	cfg.Storms = []workload.DeadlineStorm{
		{Deadline: 3*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
		{Deadline: 5*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
	}
	// Windows ride the sharded engine: each one is a 4-shard merge.
	cfg.Shards = 4
	// Pin the planner knobs explicitly (these are the defaults) so the
	// golden's plan provenance is in the config, not in defaults().
	cfg.HybridIntensity = 1.5
	cfg.HybridGuard = 10 * time.Minute
	return cfg
}

// Table11HybridCourse renders the default artifact: hybrid vs fluid vs
// a DES spot-check window on the storm-augmented MOOC course.
func Table11HybridCourse(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	return table11At(seed, pool, scenario.FidelityAuto)
}

// table11At renders the course at one fidelity, the knob
// Experiment.At turns. FidelityAuto is the full three-row comparison;
// FidelityFluid renders the flow-level row alone; FidelityDES renders
// the pure request-level spot-check window alone (the whole 10-week
// horizon is not feasible at full DES — that asymmetry is the point of
// the experiment).
func table11At(seed uint64, pool *scenario.Pool, fidelity scenario.Fidelity) (*metrics.Table, error) {
	cfg := moocStormCourse(seed)
	plan, err := scenario.PlanFidelity(cfg)
	if err != nil {
		return nil, err
	}
	if len(plan.Windows) == 0 {
		return nil, fmt.Errorf("table11: storm course planned no DES windows")
	}

	t := metrics.NewTable(
		fmt.Sprintf("Table 11: auto-fidelity hybrid on the %dk→%dk MOOC course (%d weeks)",
			moocStudentsStart/1000, moocStudentsCap/1000, moocCourseWeeks),
		"configuration", "plan", "peak servers", "VM-hours", "$/st/mo", "p95", "served", "events")

	var hybrid, fluid, spot *scenario.Result
	if fidelity == scenario.FidelityAuto {
		if hybrid, err = pool.Run(cfg); err != nil {
			return nil, fmt.Errorf("table11 hybrid: %w", err)
		}
	}
	if fidelity != scenario.FidelityDES {
		flow := cfg
		flow.Fidelity = scenario.FidelityFluid
		if fluid, err = pool.Run(flow); err != nil {
			return nil, fmt.Errorf("table11 fluid: %w", err)
		}
	}
	if fidelity != scenario.FidelityFluid {
		if spot, err = scenario.HybridSpotCheck(cfg, pool, 0); err != nil {
			return nil, fmt.Errorf("table11 spot-check: %w", err)
		}
	}

	if hybrid != nil {
		t.AddRow("hybrid (auto fidelity)",
			fmt.Sprintf("%d win / %.1fh des / %.0fh fluid",
				len(plan.Windows), hybrid.DESSimHours, hybrid.FluidSimHours),
			hybrid.PeakServers,
			fmt.Sprintf("%.0f", hybrid.VMHoursPublic),
			fmt.Sprintf("%.2f", hybrid.CostPerStudentMonth(moocStudentsCap)),
			metrics.FmtMillis(hybrid.Latency.P95()),
			fmt.Sprintf("%d", hybrid.Served),
			fmt.Sprintf("%d", hybrid.Events))
	}
	if fluid != nil {
		t.AddRow("fluid (whole horizon)",
			fmt.Sprintf("0 win / 0.0h des / %.0fh fluid", fluid.Duration.Hours()),
			fluid.PeakServers,
			fmt.Sprintf("%.0f", fluid.VMHoursPublic),
			fmt.Sprintf("%.2f", fluid.CostPerStudentMonth(moocStudentsCap)),
			"-",
			fmt.Sprintf("%d", fluid.Served),
			"0")
	}
	if spot != nil {
		w := plan.Windows[0]
		t.AddRow("des spot-check, window 0",
			fmt.Sprintf("[%s,%s)", fmtDay(w.Start), fmtDay(w.End)),
			spot.PeakServers,
			fmt.Sprintf("%.0f", spot.VMHoursPublic),
			"-",
			metrics.FmtMillis(spot.Latency.P95()),
			fmt.Sprintf("%d", spot.Served),
			fmt.Sprintf("%d", spot.Events))
	}

	t.AddNote("seed=%d; table9's logistic %dk→%dk course with a launch join spike (day 2, x5) and deadline storms (days 3 and 5, x4); intensity threshold %.1f, guard %s, windows as 4-shard merges",
		seed, moocStudentsStart/1000, moocStudentsCap/1000, cfg.HybridIntensity, cfg.HybridGuard)
	for _, w := range plan.Windows {
		t.AddNote("planned DES window [%s, %s) — peak envelope bound %.0f rps", fmtDay(w.Start), fmtDay(w.End), w.PeakBound)
	}
	if hybrid != nil && fluid != nil {
		servedDelta := (float64(hybrid.Served) - float64(fluid.Served)) / float64(fluid.Served)
		vmRatio := hybrid.VMHoursPublic / fluid.VMHoursPublic
		t.AddNote("agreement vs fluid: served mass %+.3f%%, VM-hours ratio %.3f (bands: both run one autoscaled fleet; the DES windows admit, reject and carry real requests where the fluid model assumes all offered load completes)",
			servedDelta*100, vmRatio)
	}
	if hybrid != nil && spot != nil && spot.Arrivals > 0 {
		// Speedup via deterministic event counts, never wall-clock: the
		// spot-check window's events-per-arrival ratio, extrapolated to
		// the whole horizon's offered mass, estimates what full-horizon
		// DES would cost.
		perReq := float64(spot.Events) / float64(spot.Arrivals)
		estFull := perReq * float64(hybrid.Arrivals)
		t.AddNote("speedup proxy: full-horizon DES at the spot-check's %.1f events/request over %d offered requests ≈ %.2g events; the hybrid executed %d — %.0fx fewer",
			perReq, hybrid.Arrivals, estFull, hybrid.Events, estFull/float64(hybrid.Events))
	}
	return t, nil
}

// fmtDay renders an offset into the course as "dayN hh:mm".
func fmtDay(d time.Duration) string {
	day := 24 * time.Hour
	return fmt.Sprintf("day%d %02d:%02d", d/day, d%day/time.Hour, d%time.Hour/time.Minute)
}
