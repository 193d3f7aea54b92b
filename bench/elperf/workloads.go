package main

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// job is one simulation call a pass makes.
type job struct {
	name string
	cfg  scenario.Config
	// hybrid selects scenario.HybridRun instead of scenario.Run.
	hybrid bool
}

// run executes the job. Hybrid windows run on pool, which has one
// worker, so every run is serial on the calling goroutine.
func (j job) run(pool *scenario.Pool) (*scenario.Result, error) {
	if j.hybrid {
		return scenario.HybridRun(j.cfg, pool)
	}
	return scenario.Run(j.cfg)
}

// workloadDef is one named benchmark workload: the runs one pass makes.
// Why each workload is in the benchmark is recorded in BENCHMARK.json
// and bench/README.md.
type workloadDef struct {
	name string
	// configs returns one pass's configs. Seeds are assigned by jobs.
	configs func() []scenario.Config
	hybrid  bool
}

// jobs builds the workload's runs for seed. Run i's seed is
// SeedFor(seed, "<workload>/<i>"), so -seed is the only input. No
// config sets Shards, so the runs do not depend on the sharded path.
func (w *workloadDef) jobs(seed uint64) []job {
	cfgs := w.configs()
	out := make([]job, len(cfgs))
	for i, cfg := range cfgs {
		name := fmt.Sprintf("%s/%d", w.name, i)
		cfg.Seed = scenario.SeedFor(seed, name)
		out[i] = job{name: name, cfg: cfg, hybrid: w.hybrid}
	}
	return out
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []*workloadDef{
	{
		name: "ramp-100k",
		configs: func() []scenario.Config {
			// table10's K=1 scenario: 10k to 100k students over 90 minutes.
			return []scenario.Config{{
				Kind:              deploy.Public,
				Growth:            workload.LinearGrowth(10000, 100000, 90*time.Minute),
				ReqPerStudentHour: 30,
				Duration:          2 * time.Hour,
				Diurnal:           workload.FlatDiurnal(),
				Scaler:            scenario.ScalerReactive,
				Access:            network.UrbanBroadband,
			}}
		},
	},
	{
		name: "week-outage",
		configs: func() []scenario.Config {
			// figure5's sweep at three last-mile MTBFs.
			var cfgs []scenario.Config
			for _, mtbfHours := range []float64{6, 24, 168} {
				cfgs = append(cfgs, scenario.Config{
					Kind:              deploy.Public,
					Students:          300,
					ReqPerStudentHour: 15,
					Duration:          7 * 24 * time.Hour,
					TrackedSessions:   100,
					Access: network.AccessProfile{
						Name:        fmt.Sprintf("outage-%gh", mtbfHours),
						LatencyMean: 0.03, LatencySigma: 0.4, Mbps: 10,
						MTBF: mtbfHours * 3600, MTTR: 1800,
					},
				})
			}
			return cfgs
		},
	},
	{
		name: "crowd-burst",
		configs: func() []scenario.Config {
			examDay := func(kind deploy.Kind, scaler scenario.ScalerKind) scenario.Config {
				return scenario.Config{
					Kind:              kind,
					Students:          1000,
					ReqPerStudentHour: 50,
					Duration:          2 * time.Hour,
					Diurnal:           workload.FlatDiurnal(),
					Scaler:            scaler,
					Access:            network.UrbanBroadband,
					Crowds: []workload.FlashCrowd{{
						Start: 30 * time.Minute, End: 90 * time.Minute,
						Mult: 10, ExamTraffic: true,
					}},
				}
			}
			deadlineStorm := func(scaler scenario.ScalerKind) scenario.Config {
				return scenario.Config{
					Kind:              deploy.Public,
					Students:          1000,
					ReqPerStudentHour: 50,
					Duration:          3 * time.Hour,
					Diurnal:           workload.FlatDiurnal(),
					Scaler:            scaler,
					Access:            network.UrbanBroadband,
					Joins: []workload.JoinStorm{{
						Start: 30 * time.Minute, Window: 30 * time.Minute,
						PeakMult: 6, Decay: 5 * time.Minute, ExamTraffic: true,
					}},
					Storms: []workload.DeadlineStorm{{
						Deadline: 150 * time.Minute, Ramp: 90 * time.Minute,
						PeakMult: 10, Tau: 30 * time.Minute, ExamTraffic: true,
					}},
				}
			}
			return []scenario.Config{
				examDay(deploy.Public, scenario.ScalerFixed),
				examDay(deploy.Public, scenario.ScalerReactive),
				examDay(deploy.Private, scenario.ScalerReactive),
				examDay(deploy.Hybrid, scenario.ScalerReactive),
				deadlineStorm(scenario.ScalerReactive),
				deadlineStorm(scenario.ScalerGrowthFit),
			}
		},
	},
	{
		name: "mooc-hybrid",
		configs: func() []scenario.Config {
			// table11's 10-week 50k to 500k course with its join spike and
			// two deadline storms, windows unsharded.
			day, week := 24*time.Hour, 7*24*time.Hour
			return []scenario.Config{{
				Kind:              deploy.Public,
				Growth:            workload.LogisticGrowth(50000, 500000, 4*week),
				ReqPerStudentHour: 8,
				Duration:          10 * week,
				Diurnal:           workload.GlobalCohort(),
				Scaler:            scenario.ScalerReactive,
				Joins: []workload.JoinStorm{{
					Start: 2*day + 18*time.Hour, Window: 30 * time.Minute, PeakMult: 5,
				}},
				Storms: []workload.DeadlineStorm{
					{Deadline: 3*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
					{Deadline: 5*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
				},
				HybridIntensity: 1.5,
				HybridGuard:     10 * time.Minute,
			}}
		},
		hybrid: true,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
