package scenario

import (
	"fmt"
	"math"

	"elearncloud/internal/metrics"
)

// This file shards a DES run into K per-shard engines so runs at
// 10^5–10^6 students execute as K ordinary pool jobs instead of one
// serial event loop.
//
// The construction:
//
//   - Shard k is the run at its share of the demand: the same config
//     with ReqPerStudentHour scaled by share_k = shardSlice(Students,
//     k, K) / Students. Splitting a Poisson process with constant
//     probabilities yields independent Poisson processes whose rates
//     sum to the original, so the K shard processes together are the
//     unsharded NHPP. The shard's own generator carries its share into
//     the fleet's sizing and the scheduled and oracle plans, and a
//     hybrid window's warm fleet and backlog are scaled to it here.
//   - Shard k's RNG streams are rooted at SeedFor(seed, "shard/<k>") —
//     the same (seed, job name) rule every batch job follows — so the
//     merged output is a pure function of (config, seed, K), independent
//     of worker count and scheduling.
//   - The shards share one access line: every shard roots its last-mile
//     outages at the seed shardedRun was called with, so they see the
//     outages the unsharded engine would. Every shard tracks the full
//     Config.TrackedSessions, and the merge reads the disconnects,
//     availability and lost work of shard 0.
//   - Shards execute as ordinary Pool jobs, so -parallel remains the
//     one global concurrency cap: K=8 with -parallel 2 runs two shard
//     engines at a time on the same tokens every batch shares.
//
// The approximation: fleet and autoscaler state stays per-shard, each
// fleet sized for its shard's share of the demand. The merged run
// therefore models K fleets of ~N/K servers instead of one fleet of N.
// Pooling effects make the split fleet slightly worse at absorbing load
// imbalance between shards — by Erlang-C reasoning the error shrinks as
// per-shard fleets grow, and the metamorph determinism invariant
// bounds the realized P95 drift against the unsharded engine on
// overlap-regime configs. Scalar consumption (VM-hours, egress, served
// counts) is unaffected by the split beyond that queueing drift. Owned
// hosts add up across the shards' fleets, and the merge bills the whole
// run once, so storage is not charged K times.
//
// Shards ≤ 1 is not a sharded run: shardedRun hands it to the one
// direct engine. The golden table10 shards=1 row and
// TestShardedOneEqualsRun pin this.

// shardedRun runs a defaulted cfg's request-level engine: one engine
// when cfg.Shards ≤ 1, else cfg.Shards per-shard engines on the pool,
// merged deterministically in shard-index order. A non-nil win confines
// every engine to that hybrid DES window, so FidelityAuto's windows
// honor Config.Shards with the same shares, seeds and merge as a
// whole-horizon run.
func shardedRun(cfg Config, pool *Pool, win *desWindow) (*Result, error) {
	if cfg.Shards <= 1 {
		return runEngine(cfg, win, cfg.Seed)
	}
	results := make([]*Result, cfg.Shards)
	if err := pool.ForEach(cfg.Shards, func(k int) error {
		sub, subWin := shardOf(cfg, win, k)
		r, err := runEngine(sub, subWin, cfg.Seed)
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
		results[k] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return mergeShards(results)
}

// shardOf returns shard k's config and window (nil when win is): cfg at
// share_k of the demand, with its slice of a configured public cap, and
// win's warm fleet (ceiling) and backlog (rounded) scaled to share_k.
func shardOf(cfg Config, win *desWindow, k int) (Config, *desWindow) {
	share := float64(shardSlice(cfg.Students, k, cfg.Shards)) / float64(cfg.Students)
	sub := cfg
	sub.Shards = 0
	sub.Seed = SeedFor(cfg.Seed, fmt.Sprintf("shard/%d", k))
	sub.ReqPerStudentHour = cfg.ReqPerStudentHour * share
	if cfg.MaxPublicServers > 0 {
		sub.MaxPublicServers = max(1, int(math.Ceil(share*float64(cfg.MaxPublicServers))))
	}
	// Singleton processes — the threat environment and the injected
	// host failure — run on shard 0 only, not once per shard: the
	// scenario models one institution, not K.
	if k > 0 {
		sub.EnableThreats = false
		sub.HostFailureAt = 0
	}
	if win == nil {
		return sub, nil
	}
	w := *win
	w.initServers = int(math.Ceil(float64(win.initServers) * share))
	w.backlog = int(math.Round(float64(win.backlog) * share))
	return sub, &w
}

// shardSlice splits a count of total across K shards: shard k gets its
// contiguous slice, and the slices add up to total.
func shardSlice(total, k, shards int) int {
	return total*(k+1)/shards - total*k/shards
}

// mergeShards folds per-shard results into one Result, iterating in
// shard-index order everywhere so every float reduction has one fixed
// evaluation order — the VMHours lesson: sums over shards must never
// depend on completion order.
func mergeShards(shards []*Result) (*Result, error) {
	base := shards[0]
	res := &Result{
		Kind:     base.Kind,
		Scaler:   base.Scaler,
		Duration: base.Duration,
		Latency:  metrics.DefaultLatency(),
		Shards:   len(shards),
	}
	for _, r := range shards {
		res.add(r)
		// Fleets and owned hosts are per shard, so they add up.
		res.PeakServers += r.PeakServers
		res.PrivateHosts += r.PrivateHosts
		res.ShardEvents = append(res.ShardEvents, r.Events)
	}
	// The shards share one access line, so its outages, and the work
	// they destroy, count once.
	res.Disconnects = base.Disconnects
	res.NetAvailability = base.NetAvailability
	res.LostWork = base.LostWork
	// Hit ratio weighted by delivered bytes.
	if res.CDNGB > 0 {
		var hitW float64
		for _, r := range shards {
			hitW += r.CDNHitRatio * r.CDNGB
		}
		res.CDNHitRatio = hitW / res.CDNGB
	}

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
	return res, nil
}
