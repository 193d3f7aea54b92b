package experiments

import (
	"fmt"
	"time"

	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
	"elearncloud/internal/federate"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// This file holds the reproduction's extension experiments: questions
// the paper raises but does not answer, built on the same substrates.
//
//   - Table 7:  the "national private cloud system" (§IV.C/§V) as a
//     federation of institutions sharing one datacenter.
//   - Figure 8: a CDN in front of the public model — the period-correct
//     answer to Figure 3's egress-dominated public bill.
//   - Figure 9: physical damage to the on-premise unit (§IV.B), injected
//     live into a running private deployment.

// Table7Federation studies a national shared private cloud for staggered
// member institutions.
func Table7Federation(seed uint64, _ *scenario.Pool) (*metrics.Table, error) {
	res, err := federate.Study(federate.Config{Members: []federate.Member{
		{Name: "capital-university", Students: 12000, CalendarShiftWeeks: 0},
		{Name: "coastal-college", Students: 4000, CalendarShiftWeeks: 2},
		{Name: "inland-college", Students: 3000, CalendarShiftWeeks: 4},
		{Name: "rural-schools-consortium", Students: 2000, CalendarShiftWeeks: 6},
	}})
	if err != nil {
		return nil, err
	}
	t := res.Table("Table 7: national shared private cloud vs standalone deployments (§IV.C/§V)")
	t.AddNote("seed=%d (analytic); calendars staggered by region so exam peaks do not coincide", seed)
	return t, nil
}

// Figure8CDN reprices the public model with an edge CDN across
// institution sizes and reports how far the Figure 3 crossover moves.
func Figure8CDN(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 8: CDN ablation — semester TCO per student (extension of Figure 3)",
		"students", "public $/st/mo", "public+CDN $/st/mo", "private $/st/mo", "cheapest")
	populations := []int{200, 600, 2000, 5000, 20000}
	batch := scenario.NewBatch(seed)
	for _, n := range populations {
		batch.AddFluid(fmt.Sprintf("public/%d", n), semester(seed, deploy.Public, n))
		cfgCDN := semester(seed, deploy.Public, n)
		cfgCDN.EnableCDN = true
		batch.AddFluid(fmt.Sprintf("public-cdn/%d", n), cfgCDN)
		batch.AddFluid(fmt.Sprintf("private/%d", n), semester(seed, deploy.Private, n))
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	var hitRatio float64
	var crossover int
	for _, n := range populations {
		pub := runs.Result(fmt.Sprintf("public/%d", n))
		pubCDN := runs.Result(fmt.Sprintf("public-cdn/%d", n))
		priv := runs.Result(fmt.Sprintf("private/%d", n))
		hitRatio = pubCDN.CDNHitRatio
		costs := map[string]float64{
			"public":     pub.CostPerStudentMonth(n),
			"public+cdn": pubCDN.CostPerStudentMonth(n),
			"private":    priv.CostPerStudentMonth(n),
		}
		cheapest := "public"
		for name, c := range costs {
			if c < costs[cheapest] {
				cheapest = name
			}
		}
		if crossover == 0 && costs["private"] < costs["public+cdn"] {
			crossover = n
		}
		t.AddRow(n,
			fmt.Sprintf("%.2f", costs["public"]),
			fmt.Sprintf("%.2f", costs["public+cdn"]),
			fmt.Sprintf("%.2f", costs["private"]),
			cheapest)
	}
	t.AddNote("seed=%d; analytic edge hit ratio %.0f%% (Zipf-1 popularity, quarter-catalog cache)",
		seed, hitRatio*100)
	if crossover > 0 {
		t.AddNote("with the CDN the public/private crossover moves from ~600 to ~%d students", crossover)
	}
	t.AddNote("this is how 2013 platforms actually shipped video: CDN delivery at ~half raw egress price")
	return t, nil
}

// Table8PurchaseMix ablates the public model's purchase strategy:
// all on-demand, the breakeven-optimal reserved mix, and all reserved,
// over a standard semester — the purchase-mix design decision the
// public-cost model leaves open (see ARCHITECTURE.md).
func Table8PurchaseMix(seed uint64, _ *scenario.Pool) (*metrics.Table, error) {
	res, err := scenario.FluidRun(semester(seed, deploy.Public, collegeStudents))
	if err != nil {
		return nil, err
	}
	rates := cost.DefaultRates()
	months := res.Duration.Hours() / 730
	strategies := []struct {
		name string
		mix  cost.PurchaseMix
	}{
		{"all on-demand", cost.AllOnDemandMix(res.ServerRankHours)},
		{"optimal mix", cost.OptimizeReservedMix(res.ServerRankHours, months, rates.Public)},
		{"all reserved", cost.AllReservedMix(res.ServerRankHours, months)},
	}
	t := metrics.NewTable(
		"Table 8: reserved vs on-demand purchase mix (public model, one semester)",
		"strategy", "reserved slots", "compute cost", "vs on-demand")
	base := strategies[0].mix.ComputeUSD(rates.Public)
	for _, s := range strategies {
		c := s.mix.ComputeUSD(rates.Public)
		delta := "-"
		if base > 0 {
			delta = metrics.FmtPercent((c - base) / base)
		}
		t.AddRow(s.name, s.mix.Reserved, metrics.FmtDollars(c), delta)
	}
	t.AddNote("seed=%d; breakeven at %.0f h/month; duration curve from the semester fluid run",
		seed, cost.BreakevenMonthlyHours(rates.Public))
	t.AddNote("reserve the base that runs all semester, burst the exam peaks on demand")
	return t, nil
}

// Figure9HostFailure destroys private host 0 in the middle of an exam
// crowd — the §IV.B "physical damage of the unit", at the worst possible
// moment — and measures the user-visible damage for private and hybrid
// deployments against undisturbed references.
func Figure9HostFailure(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 9: the server room dies mid-finals (§IV.B physical damage)",
		"model", "killed jobs", "error rate", "p99", "note")
	baseCfg := func(kind deploy.Kind, fail bool) scenario.Config {
		cfg := scenario.Config{
			Seed:              seed,
			Kind:              kind,
			Students:          desStudents,
			ReqPerStudentHour: 50,
			Duration:          3 * time.Hour,
			Diurnal:           workload.FlatDiurnal(),
			Crowds: []workload.FlashCrowd{{
				Start: 1 * time.Hour, End: 2 * time.Hour,
				Mult: 10, ExamTraffic: true,
			}},
		}
		if fail {
			// The flood hits 30 minutes into the exam; repair takes an
			// hour.
			cfg.HostFailureAt = 90 * time.Minute
			cfg.HostRecoveryAfter = time.Hour
		}
		return cfg
	}
	rows := []struct {
		name string
		kind deploy.Kind
		fail bool
		note string
	}{
		{"private-fail", deploy.Private, true, "loses its main host mid-exam"},
		{"hybrid-fail", deploy.Hybrid, true, "loses a host; bursts to public"},
		{"private-ref", deploy.Private, false, "undisturbed reference"},
		{"public-ref", deploy.Public, false, "provider absorbs hardware loss"},
	}
	batch := scenario.NewBatch(seed)
	for _, r := range rows {
		batch.Add(r.name, baseCfg(r.kind, r.fail))
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		res := runs.Result(r.name)
		t.AddRow(res.Kind.String(),
			res.KilledJobs,
			metrics.FmtPercent(res.ErrorRate()),
			metrics.FmtMillis(res.Latency.P99()),
			r.note)
	}
	t.AddNote("seed=%d; 10x exam crowd 1h-2h; host 0 fails at 1h30m, repaired at 2h30m; %d students",
		seed, desStudents)
	return t, nil
}
