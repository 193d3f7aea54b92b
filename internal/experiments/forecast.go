package experiments

import (
	"fmt"

	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
)

// This file holds the forecasting-policy experiment: the deadline storm
// of figure10 rerun under every scaling policy that claims to see the
// future, bracketed by the reactive baseline below and the oracle
// above. The question it answers is the autoscaling half of the
// advisor's -forecast mode: how much of the oracle's headroom can an
// online forecaster actually capture when the demand curve is a
// procrastination ramp into a cliff?

// table12Policies lists the policies in presentation order: the
// reactive floor, the two forecasters, then the oracle ceiling.
func table12Policies() []scenario.ScalerKind {
	return []scenario.ScalerKind{
		scenario.ScalerReactive,
		scenario.ScalerPredictive,
		scenario.ScalerGrowthFit,
		scenario.ScalerOracle,
	}
}

// Table12ForecastPolicies runs figure10's deadline storm — join spike,
// procrastination ramp, submission cliff — under reactive, predictive,
// growth-fit and oracle scaling, and reports what each policy paid and
// what it dropped. Reactive and oracle bracket the achievable range.
// Both forecasters meter arrivals and size through deploy.ServersForPeak;
// they differ only in the forecast.
func Table12ForecastPolicies(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	batch := scenario.NewBatch(seed)
	for _, sk := range table12Policies() {
		batch.Add("storm/"+sk.String(), deadlineStorm(seed, sk))
	}
	runs, err := batch.RunOn(pool)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		"Table 12: forecasting policies through the deadline storm (public; reactive vs predictive vs growth-fit vs oracle)",
		"policy", "p95", "rejected", "% of arrivals", "VM-hours", "$/1k served", "peak servers")

	var fitNote string
	for _, sk := range table12Policies() {
		res := runs.Result("storm/" + sk.String())
		perServed := 0.0
		if res.Served > 0 {
			perServed = res.Cost.Total() / float64(res.Served) * 1000
		}
		rejFrac := 0.0
		if res.Arrivals > 0 {
			rejFrac = float64(res.Rejected) / float64(res.Arrivals)
		}
		t.AddRow(sk.String(),
			metrics.FmtMillis(res.Latency.P95()),
			res.Rejected,
			metrics.FmtPercent(rejFrac),
			fmt.Sprintf("%.1f", res.VMHoursPublic),
			fmt.Sprintf("%.4f", perServed),
			res.PeakServers)
		if sk == scenario.ScalerGrowthFit && res.Fit != nil {
			fitNote = res.Fit.String()
		}
	}

	t.AddNote("seed=%d; identical storm in every row: %d students at 50 req/student-h, join spike x6 at 00:30, 90m procrastination ramp to x10 at the 02:30 deadline",
		seed, desStudents)
	t.AddNote("predictive and growth-fit both meter the arrival rate and size their forecast a boot-time ahead through deploy.ServersForPeak; they differ only in the forecast: Holt's level and trend, or a fitted growth curve")
	t.AddNote("growth-fit final fit: %s", fitNote)
	t.AddNote("oracle provisions from the true rate curve a boot-time ahead — the ceiling any online forecaster is chasing; reactive is the floor that only moves after the queue hurts")
	return t, nil
}
