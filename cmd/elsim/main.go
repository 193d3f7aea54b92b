// Command elsim runs a single e-learning deployment scenario and prints
// the measured result.
//
// Usage:
//
//	elsim -model hybrid -students 2000 -hours 6 -access rural-dsl \
//	      -scaler reactive -exam -seed 7
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("elsim", flag.ContinueOnError)
	var (
		model    = fs.String("model", "public", "deployment model: public|private|hybrid|desktop")
		students = fs.Int("students", 1000, "student population")
		hours    = fs.Float64("hours", 6, "simulated hours")
		access   = fs.String("access", "urban-broadband", "access profile: campus-lan|urban-broadband|rural-dsl")
		scaler   = fs.String("scaler", "reactive", "autoscaler: fixed|reactive|scheduled|predictive")
		exam     = fs.Bool("exam", false, "inject a 10x exam flash crowd mid-run")
		threats  = fs.Bool("threats", false, "enable the security threat model")
		useCDN   = fs.Bool("cdn", false, "serve video through an edge CDN")
		seed     = fs.Uint64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Config.defaults replaces a non-positive Duration with 6h, so a
	// horizon that is not positive, is NaN or overflows time.Duration
	// must fail here rather than silently run 6h.
	horizon := *hours * float64(time.Hour)
	if !(horizon >= 1) || horizon >= math.MaxInt64 {
		return fmt.Errorf("-hours %v: want a positive number of hours that fits a time.Duration", *hours)
	}

	cfg := scenario.Config{
		Seed:          *seed,
		Students:      *students,
		Duration:      time.Duration(horizon),
		EnableThreats: *threats,
		EnableCDN:     *useCDN,
	}
	switch *model {
	case "public":
		cfg.Kind = deploy.Public
	case "private":
		cfg.Kind = deploy.Private
	case "hybrid":
		cfg.Kind = deploy.Hybrid
	case "desktop":
		cfg.Kind = deploy.Desktop
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	switch *access {
	case "campus-lan":
		cfg.Access = network.CampusLAN
	case "urban-broadband":
		cfg.Access = network.UrbanBroadband
	case "rural-dsl":
		cfg.Access = network.RuralDSL
	default:
		return fmt.Errorf("unknown access profile %q", *access)
	}
	switch *scaler {
	case "fixed":
		cfg.Scaler = scenario.ScalerFixed
	case "reactive":
		cfg.Scaler = scenario.ScalerReactive
	case "scheduled":
		cfg.Scaler = scenario.ScalerScheduled
	case "predictive":
		cfg.Scaler = scenario.ScalerPredictive
	default:
		return fmt.Errorf("unknown scaler %q", *scaler)
	}
	if *exam {
		mid := cfg.Duration / 2
		cfg.Crowds = []workload.FlashCrowd{{
			Start: mid - 30*time.Minute, End: mid + 30*time.Minute,
			Mult: 10, ExamTraffic: true,
		}}
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	printResult(cfg, res)
	return nil
}

func printResult(cfg scenario.Config, res *scenario.Result) {
	fmt.Printf("model=%s scaler=%s students=%d horizon=%s seed=%d\n\n",
		res.Kind, res.Scaler, cfg.Students, res.Duration, cfg.Seed)
	s := res.Latency.Summarize()
	fmt.Printf("requests: served=%d rejected=%d offline=%d (error rate %s)\n",
		res.Served, res.Rejected, res.Offline, metrics.FmtPercent(res.ErrorRate()))
	fmt.Printf("latency:  p50=%s p95=%s p99=%s max=%s\n",
		metrics.FmtMillis(s.P50), metrics.FmtMillis(s.P95),
		metrics.FmtMillis(s.P99), metrics.FmtMillis(s.Max))
	fmt.Printf("fleet:    peak=%d servers, public %.1f VM-h, private %.1f VM-h on %d hosts\n",
		res.PeakServers, res.VMHoursPublic, res.VMHoursPrivate, res.PrivateHosts)
	fmt.Printf("network:  availability=%s disconnects=%d lost work=%s egress=%.2f GB\n",
		metrics.FmtPercent(res.NetAvailability), res.Disconnects,
		res.LostWork.Round(time.Second), res.EgressGB)
	if res.CDNGB > 0 {
		fmt.Printf("cdn:      %.2f GB delivered at %s hit ratio\n",
			res.CDNGB, metrics.FmtPercent(res.CDNHitRatio))
	}
	if res.PolicyViolations > 0 {
		fmt.Printf("hybrid:   %d sensitive requests burst to public\n", res.PolicyViolations)
	}
	if res.Breaches+res.DataLossEvents > 0 {
		fmt.Printf("threats:  breaches=%d exposures=%d loss events=%d bytes lost=%.1f GB\n",
			res.Breaches, res.SensitiveExposures, res.DataLossEvents, res.BytesLost/1e9)
	}
	fmt.Printf("cost:     %s (%s per student-month)\n",
		metrics.FmtDollars(res.Cost.Total()),
		metrics.FmtDollars(res.CostPerStudentMonth(cfg.Students)))
}
