package scenario

import (
	"fmt"
	"math"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/sim"
)

// This file shards a DES run into K per-shard engines so runs at
// 10^5–10^6 students execute as K ordinary pool jobs instead of one
// serial event loop.
//
// The construction:
//
//   - Students are partitioned by a stable hash of user ID
//     (workload.ShardOf), so membership is a pure function of (user, K).
//   - Shard k's RNG streams are rooted at SeedFor(seed, "shard/<k>") —
//     the same (seed, job name) rule every batch job follows — so the
//     merged output is a pure function of (config, seed, K), independent
//     of worker count and scheduling.
//   - Each shard draws arrivals from the full NHPP envelope thinned by
//     its share of the active population; superposing the shard
//     processes reproduces the unsharded arrival distribution exactly
//     (Poisson splitting).
//   - Shards execute as ordinary Pool jobs, so -parallel remains the
//     one global concurrency cap: K=8 with -parallel 2 runs two shard
//     engines at a time on the same tokens every batch shares.
//
// The approximation: fleet and autoscaler state stays per-shard, with
// capacity split proportionally to shard population (CapShare). The
// merged run therefore models K fleets of ~N/K servers instead of one
// fleet of N. Pooling effects make the split fleet slightly worse at
// absorbing load imbalance between shards — by Erlang-C reasoning the
// error shrinks as per-shard fleets grow, and the shard-determinism
// metamorph invariant bounds the realized P95 drift against the
// unsharded engine on overlap-regime configs. Scalar consumption
// (VM-hours, egress, served counts) is unaffected by the split beyond
// that queueing drift; storage and per-host billing are rebilled once
// at merge so per-shard asset copies are not double-counted.
//
// At K=1 every share is exactly 1.0, the member list is the identity,
// and the seed is left untouched: the single "shard" consumes its RNG
// streams identically to the direct path and ShardedRun returns its
// result unmerged — byte-identical to Run. The CI scale lane and
// TestShardedOneEqualsRun pin this.

// ShardedRun executes cfg as cfg.Shards per-shard engines on the pool
// and merges the results deterministically in shard-index order. Shards
// of 0 or 1 runs a single shard and returns its result directly (byte-
// identical to Run). A nil pool runs on a one-off DefaultWorkers pool.
func ShardedRun(cfg Config, pool *Pool) (*Result, error) {
	return shardedRun(cfg, pool, nil)
}

// shardedRun is ShardedRun with an optional hybrid DES window: every
// shard engine is confined to the window's span, so HybridRun's
// windows honor Config.Shards with the same partition, seeds and merge
// as a whole-horizon sharded run.
func shardedRun(cfg Config, pool *Pool, win *desWindow) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	sh := gen.ShardBy(shards)

	subs := make([]Config, shards)
	for k := range subs {
		sub := cfg
		sub.Shards = 0 // each shard is a plain single-engine run
		if shards > 1 {
			sub.Seed = SeedFor(cfg.Seed, fmt.Sprintf("shard/%d", k))
			sub.TrackedSessions = shardSlice(cfg.TrackedSessions, k, shards)
			if cfg.MaxPublicServers > 0 {
				m := int(math.Ceil(sh.CapShare(k) * float64(cfg.MaxPublicServers)))
				if m < 1 {
					m = 1
				}
				sub.MaxPublicServers = m
			}
			// Singleton processes — the threat environment and the
			// injected host failure — run on shard 0 only, not once per
			// shard: the scenario models one institution, not K.
			if k > 0 {
				sub.EnableThreats = false
				sub.HostFailureAt = 0
			}
		}
		subs[k] = sub
	}

	results := make([]*Result, shards)
	if err := pool.ForEach(shards, func(k int) error {
		r, err := runShard(subs[k], &shardCtx{sh: sh, k: k, win: win})
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		results[k] = r
		return nil
	}); err != nil {
		return nil, err
	}
	if shards == 1 {
		return results[0], nil
	}
	return mergeShards(cfg, results, win != nil)
}

// shardSlice splits a tracked-resource count of total across K shards:
// shard k gets its contiguous slice, every shard at least one.
func shardSlice(total, k, shards int) int {
	n := total*(k+1)/shards - total*k/shards
	if n < 1 {
		n = 1
	}
	return n
}

// mergeShards folds per-shard results into one Result, iterating in
// shard-index order everywhere so every float reduction has one fixed
// evaluation order — the VMHours lesson: sums over shards must never
// depend on completion order. window marks a hybrid DES-window merge,
// which skips billing (the hybrid stitcher bills once over the whole
// horizon).
func mergeShards(cfg Config, shards []*Result, window bool) (*Result, error) {
	base := shards[0]
	res := &Result{
		Kind:     base.Kind,
		Scaler:   base.Scaler,
		Duration: base.Duration,
		Latency:  metrics.DefaultLatency(),
		Shards:   len(shards),
	}
	for _, r := range shards {
		res.Latency.Merge(r.Latency)
		res.Served += r.Served
		res.Rejected += r.Rejected
		res.Offline += r.Offline
		res.PolicyViolations += r.PolicyViolations
		res.PeakServers += r.PeakServers
		res.VMHoursPublic += r.VMHoursPublic
		res.VMHoursPrivate += r.VMHoursPrivate
		res.PrivateHosts += r.PrivateHosts
		res.EgressGB += r.EgressGB
		res.CDNGB += r.CDNGB
		res.KilledJobs += r.KilledJobs
		res.LostWork += r.LostWork
		res.Disconnects += r.Disconnects
		res.Breaches += r.Breaches
		res.SensitiveExposures += r.SensitiveExposures
		res.DataLossEvents += r.DataLossEvents
		res.BytesLost += r.BytesLost
		res.Arrivals += r.Arrivals
		res.CarriedIn += r.CarriedIn
		res.CarriedOut += r.CarriedOut
		res.Events += r.Events
		res.ShardEvents = append(res.ShardEvents, r.Events)
	}
	// Hit ratio weighted by delivered bytes; availability as the mean of
	// the shards' independent last-mile processes.
	if res.CDNGB > 0 {
		var hitW float64
		for _, r := range shards {
			hitW += r.CDNHitRatio * r.CDNGB
		}
		res.CDNHitRatio = hitW / res.CDNGB
	}
	var avail float64
	for _, r := range shards {
		avail += r.NetAvailability
	}
	res.NetAvailability = avail / float64(len(shards))

	// Series sample on the same minute cadence over the same horizon in
	// every shard, so they align point-wise: fleet sizes add, utilization
	// is the capacity-weighted mean, and the P95 window series is the
	// plain mean of the shard windows (an estimator — order statistics
	// don't merge exactly — consistent with the fleet-split
	// approximation this file documents).
	srv := make([]*metrics.TimeSeries, len(shards))
	for k, r := range shards {
		srv[k] = r.Servers
	}
	res.Servers = metrics.MergeSeries("servers", func(vals []float64) float64 {
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum
	}, srv...)

	res.Utilization = metrics.NewTimeSeries("load-per-server")
	srvPts := make([][]metrics.Point, len(shards))
	utilPts := make([][]metrics.Point, len(shards))
	for k, r := range shards {
		srvPts[k] = r.Servers.Points()
		utilPts[k] = r.Utilization.Points()
		if len(utilPts[k]) != len(srvPts[k]) {
			return nil, fmt.Errorf("scenario: shard %d series misaligned: %d utilization vs %d server samples",
				k, len(utilPts[k]), len(srvPts[k]))
		}
	}
	for i := range srvPts[0] {
		var load, cap float64
		for k := range shards {
			load += utilPts[k][i].Value * srvPts[k][i].Value
			cap += srvPts[k][i].Value
		}
		v := 0.0
		if cap > 0 {
			v = load / cap
		}
		res.Utilization.Add(srvPts[0][i].At, v)
	}

	p95 := make([]*metrics.TimeSeries, len(shards))
	for k, r := range shards {
		p95[k] = r.P95Series
	}
	res.P95Series = metrics.MergeSeries("p95-window", func(vals []float64) float64 {
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}, p95...)

	// A hybrid window merge stops here: no bill, no reference
	// deployment — the stitcher bills the assembled horizon once.
	if window {
		return res, nil
	}

	// Rebill at the merged level. Each shard billed a deployment holding
	// a full copy of the asset store (shards split load, not content),
	// so summing shard bills would charge storage — and desktop seats —
	// K times. Build the full scenario's reference deployment once for
	// its asset placement, then bill the merged consumption against it.
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	cat, teaching := mixFor()
	dep, err := deploy.Build(sim.NewEngine(sim.SeedFor(cfg.Seed, "shard/bill")), deploy.Spec{
		Kind:            cfg.Kind,
		Students:        cfg.Students,
		Courses:         cfg.Courses,
		ExpectedPeakRPS: gen.MaxRate(),
		MeanServiceSec:  teaching.MeanService(cat),
		TargetUtil:      cfg.TargetUtil,
		Policy:          cfg.HybridPolicy,
	})
	if err != nil {
		return nil, err
	}
	res.Cost, err = billRun(cfg, dep.Assets, res.PrivateHosts, res.VMHoursPublic, res.EgressGB, res.CDNGB)
	if err != nil {
		return nil, err
	}
	return res, nil
}
