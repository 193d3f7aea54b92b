package experiments

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// This file holds the scale experiment: the onboarding ramp of table9,
// but at 10^5 students in full request-level DES — the regime the
// paper's elasticity argument actually lives in, runnable natively now
// that Config.Shards splits the event loop across per-shard engines.
// The table compares shard counts on the identical scenario seed, so
// the rows differ only by the documented fleet-split approximation,
// never by workload.

// scaleStudentsStart/Cap bound the table10 ramp: a 10k-seat launch
// climbing to 10^5 enrolled students while the course runs.
const (
	scaleStudentsStart = 10000
	scaleStudentsCap   = 100000
	scaleReqPerHour    = 30
)

// scaleRamp returns the 10^5-student DES onboarding configuration. The
// scenario seed is fixed by the experiment seed alone — every shard
// count runs the same scenario, and each shard re-derives its own
// engine seed from it via the (seed, "shard/<k>") rule.
func scaleRamp(seed uint64) scenario.Config {
	return scenario.Config{
		Seed:              scenario.SeedFor(seed, "scale/ramp"),
		Kind:              deploy.Public,
		Growth:            workload.LinearGrowth(scaleStudentsStart, scaleStudentsCap, 90*time.Minute),
		ReqPerStudentHour: scaleReqPerHour,
		Duration:          2 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Scaler:            scenario.ScalerReactive,
		Access:            network.UrbanBroadband,
	}
}

// Table10ShardedRamp renders the default artifact: the 10^5-student
// onboarding ramp at shards=1 and shards=8. The shards=1 row is the
// direct engine and the shards=8 row is the same workload split across
// eight engines. Experiment.At renders one explicit shard count, the
// knob the CI scale lane turns to pin that a fixed-K merged artifact is
// byte-identical across -parallel values.
func Table10ShardedRamp(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
	return tableForShards(seed, pool, []int{1, 8})
}

func tableForShards(seed uint64, pool *scenario.Pool, shardCounts []int) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Table 10: sharded DES onboarding ramp at %dk students", scaleStudentsCap/1000),
		"shards", "peak servers", "VM-hours", "p95", "served", "errors", "events")
	for _, shards := range shardCounts {
		cfg := scaleRamp(seed)
		cfg.Shards = shards
		res, err := pool.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("table10 shards=%d: %w", shards, err)
		}
		t.AddRow(fmt.Sprintf("%d", shards),
			res.PeakServers,
			fmt.Sprintf("%.1f", res.VMHoursPublic),
			metrics.FmtMillis(res.Latency.P95()),
			fmt.Sprintf("%d", res.Served),
			metrics.FmtPercent(res.ErrorRate()),
			fmt.Sprintf("%d", res.Events))
		if shards > 1 {
			t.AddNote("shards=%d per-shard events: %v", shards, res.ShardEvents)
		}
	}
	t.AddNote("seed=%d; request-level %dk→%dk-student onboarding over 90m at %d req/student-h, public reactive",
		seed, scaleStudentsStart/1000, scaleStudentsCap/1000, scaleReqPerHour)
	t.AddNote("rows share one scenario seed: shard counts differ only by the proportional fleet split (capacity divided by shard population share), the approximation ARCHITECTURE.md's sharding section bounds")
	return t, nil
}
