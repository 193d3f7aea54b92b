// Command eladvisor measures the three cloud deployment models at an
// institution's scale, prints the comparison matrix, and recommends a
// model for the chosen requirement profile — the paper's §IV comparison
// as a tool. With -forecast it turns optimizer: given a projected
// enrollment growth curve, it evaluates a deployment-plan grid (model ×
// scaling policy × purchase mix) through a simulation of that curve and
// answers "the cheapest P95-compliant plan is X".
//
// Usage:
//
//	eladvisor -profile mid-college [-students 3000] [-seed 1]
//	eladvisor -forecast [-growth logistic|linear] [-from 1000] [-to 8000]
//	          [-over 45m] [-horizon 2h] [-slo 500] [-budget 25] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"elearncloud/internal/core"
	"elearncloud/internal/cost"
	"elearncloud/internal/metrics"
	"elearncloud/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eladvisor:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eladvisor", flag.ContinueOnError)
	var (
		profileName = fs.String("profile", "mid-college", "institution profile: rural-school|mid-college|national-platform")
		students    = fs.Int("students", 0, "override the profile's student population")
		seed        = fs.Uint64("seed", 1, "simulation seed")

		forecast   = fs.Bool("forecast", false, "optimizer mode: evaluate a deployment-plan grid through a projected growth curve")
		growthKind = fs.String("growth", "logistic", "-forecast growth shape: logistic (viral course) or linear (cohort ramp)")
		growFrom   = fs.Int("from", 1000, "-forecast starting enrollment")
		growTo     = fs.Int("to", 8000, "-forecast final enrollment (logistic capacity / linear endpoint)")
		growOver   = fs.Duration("over", 45*time.Minute, "-forecast curve timescale: logistic midpoint or linear ramp length")
		horizon    = fs.Duration("horizon", 2*time.Hour, "-forecast simulated horizon")
		sloMillis  = fs.Float64("slo", 600, "-forecast P95 latency SLO in milliseconds")
		budget     = fs.Float64("budget", 0, "-forecast optional budget in USD over the horizon (0 = no budget question)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *students < 0 {
		return fmt.Errorf("-students %d: want a positive population (0 keeps the profile's)", *students)
	}
	if *forecast {
		return runForecast(*growthKind, *growFrom, *growTo, *growOver, *horizon, *sloMillis, *budget, *seed)
	}

	var profile core.Profile
	switch *profileName {
	case "rural-school":
		profile = core.RuralSchool
	case "mid-college":
		profile = core.MidCollege
	case "national-platform":
		profile = core.NationalPlatform
	default:
		return fmt.Errorf("unknown profile %q", *profileName)
	}
	if *students > 0 {
		profile.Students = *students
	}

	fmt.Printf("measuring deployment models for %s (%d students, seed %d)...\n\n",
		profile.Name, profile.Students, *seed)
	in, err := core.MeasureForProfile(profile, *seed)
	if err != nil {
		return err
	}
	sc, err := core.BuildScorecard(in)
	if err != nil {
		return err
	}
	fmt.Println(sc.Table().String())

	recs, err := sc.Recommend(profile)
	if err != nil {
		return err
	}
	fmt.Println("recommendation:", core.Explain(profile, recs))
	fmt.Println("\nweights:")
	for _, r := range core.Requirements() {
		if w, ok := profile.Weights[r]; ok {
			fmt.Printf("  %-14s %.2f\n", r, w)
		}
	}
	return nil
}

// runForecast is the optimizer mode: simulate the plan grid through the
// projected curve, print the evaluated points with the Pareto frontier
// marked, and answer the SLO (and optional budget) question.
func runForecast(growthKind string, from, to int, over, horizon time.Duration, sloMillis, budget float64, seed uint64) error {
	switch {
	case from <= 0:
		return fmt.Errorf("-from %d: want a positive starting enrollment", from)
	case over <= 0:
		return fmt.Errorf("-over %v: want a positive timescale", over)
	case horizon <= 0:
		return fmt.Errorf("-horizon %v: want a positive horizon", horizon)
	case !(sloMillis > 0) || math.IsInf(sloMillis, 1):
		return fmt.Errorf("-slo %v: want a positive, finite P95 target in milliseconds", sloMillis)
	case !(budget >= 0) || math.IsInf(budget, 1):
		return fmt.Errorf("-budget %v: want a non-negative, finite USD amount (0 asks no budget question)", budget)
	}
	var growth *workload.Growth
	switch growthKind {
	case "logistic":
		if from >= to-from {
			return fmt.Errorf("-from %d -to %d: logistic growth needs from < to/2 (the midpoint is the half-capacity crossing)", from, to)
		}
		growth = workload.LogisticGrowth(from, to, over)
	case "linear":
		if to < from {
			return fmt.Errorf("-from %d -to %d: linear growth needs from <= to", from, to)
		}
		growth = workload.LinearGrowth(from, to, over)
	default:
		return fmt.Errorf("unknown growth shape %q (want logistic or linear)", growthKind)
	}

	fmt.Printf("evaluating deployment plans for %s enrollment %d→%d over %v (horizon %v, seed %d)...\n\n",
		growthKind, from, to, over, horizon, seed)
	points, err := core.ForecastFrontier(core.ForecastConfig{
		Seed:     seed,
		Growth:   growth,
		Duration: horizon,
	})
	if err != nil {
		return err
	}

	frontier := cost.ParetoSearch(points)
	onFrontier := make(map[cost.PlanPoint]bool, len(frontier))
	for _, p := range frontier {
		onFrontier[p] = true
	}

	t := metrics.NewTable(
		fmt.Sprintf("Deployment plans through %s growth %d→%d (cost vs P95)", growthKind, from, to),
		"plan", "reserved", "$ horizon", "p95", "errors", "VM-hours", "frontier")
	sorted := append([]cost.PlanPoint(nil), points...)
	cost.SortPlans(sorted)
	for _, p := range sorted {
		mark := ""
		if onFrontier[p] {
			mark = "*"
		}
		t.AddRow(p.Model+", "+p.Scaler+", "+p.Mix,
			p.Reserved,
			fmt.Sprintf("%.2f", p.USD),
			metrics.FmtMillis(p.P95),
			metrics.FmtPercent(p.ErrorRate),
			fmt.Sprintf("%.1f", p.VMHours),
			mark)
	}
	t.AddNote("* = on the cost/P95 Pareto frontier; purchase mixes reprice compute only, so they share a latency with their scaler")
	fmt.Println(t.String())

	if best, ok := cost.CheapestCompliant(points, sloMillis/1000); ok {
		fmt.Printf("cheapest P95-compliant plan (SLO %.0fms): %s with the %s scaler, %s purchase mix — $%.2f over the horizon at %s P95\n",
			sloMillis, best.Model, best.Scaler, best.Mix, best.USD, metrics.FmtMillis(best.P95))
	} else if len(frontier) > 0 {
		// The frontier is sorted cheapest-first, so its last point is the
		// fastest anything on the grid achieved.
		fast := frontier[len(frontier)-1]
		fmt.Printf("no evaluated plan meets the %.0fms P95 SLO; the frontier's fastest point is %s, %s at %s\n",
			sloMillis, fast.Model, fast.Scaler, metrics.FmtMillis(fast.P95))
	} else {
		fmt.Println("no plans evaluated")
	}
	if budget > 0 {
		if best, ok := cost.BestUnderBudget(points, budget); ok {
			fmt.Printf("best plan under $%.2f: %s with the %s scaler, %s purchase mix — %s P95 for $%.2f\n",
				budget, best.Model, best.Scaler, best.Mix, metrics.FmtMillis(best.P95), best.USD)
		} else {
			fmt.Printf("no evaluated plan fits a $%.2f budget over the horizon\n", budget)
		}
	}
	return nil
}
