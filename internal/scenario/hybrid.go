package scenario

// This file is the fluid run path: the fluid model integrates the
// horizon, and at FidelityAuto request-level DES simulates the bursty
// windows in it, with the seams stitched under documented rules. A
// FidelityFluid run is the same path with no windows, so it equals an
// empty-plan auto run on every field by construction. The construction:
//
//   - The planner asks the workload for its burst windows
//     (workload.BurstWindows): envelope segments whose crowd/storm/join
//     multiplier bound reaches Config.HybridIntensity, padded by
//     Config.HybridGuard on each side and aligned to the grid of the
//     fluid series (fluidStep). The plan is a pure function of the
//     config — no RNG — so every worker count produces the same plan.
//   - Each DES window runs as an ordinary pool job with RNG streams
//     rooted at SeedFor(seed, "hybrid/<window>"), riding the sharded
//     engine (shardedRun) so Config.Shards applies inside windows; the
//     merged output is a pure function of (config, seed, plan) at any
//     -parallel.
//   - Stitching, fluid→DES: the engine clock warps to the window start
//     (sim's Engine.StartAt), the elastic fleet opens at the fluid
//     fleet's size at that instant (the fluid model runs the same
//     autoscaler over the whole horizon, windows included), the queue
//     is seeded with round(rate·meanService) synthetic in-flight jobs
//     (Little's law), and the CDN edge is pre-warmed with
//     popularity-sampled objects.
//     The window's sessions and last-mile availability start at its
//     opening. Arrivals begin after bootGrace, inside the guard margin,
//     exactly like a direct run's opening.
//   - Stitching, DES→fluid: requests still in flight at the window's
//     close (its InFlight) are handed back as served mass — the fluid
//     model assumes all offered load completes — and the fluid model,
//     whose fleet ran through the window, accrues again from its end.
//
// Error sources at a seam, each bounded and tested: the bootGrace
// arrival gap at a window opening (≤ bootGrace × quiet rate requests,
// guard-protected so the gap is quiet); the synthetic backlog's mean
// service approximation; and the in-flight handoff at close (≈ rate ×
// meanService requests counted served without latency samples). Every
// window's Result, and the stitched one, passes Result.Audit; the
// boundary property tests in hybrid_test.go pin VM-hour additivity
// across seams and the agreement band for all-DES plans, and the
// metamorph fidelity-agreement invariant fuzzes the fluid and auto runs
// against the request-level run.

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/metrics"
	"elearncloud/internal/workload"
)

// desWindow is one planned DES window with its warm-start state: what
// runEngine needs to open the window as if the simulation had been
// running since t=0.
type desWindow struct {
	index      int
	start, end time.Duration
	// initServers is the fluid fleet's Desired at the window's opening
	// instant (the whole run's; shardOf scales it to a shard's share).
	initServers int
	// backlog is the in-flight request count to seed (Little's law at
	// the opening instant; shardOf scales it like initServers).
	backlog int
}

// FidelityPlan is the hybrid planner's partition of the horizon: the
// DES windows, with everything outside them integrated by the fluid
// model. It is exported for tests, table11's plan report and elbench.
type FidelityPlan struct {
	// Windows are the DES windows, sorted and disjoint.
	Windows []workload.BurstWindow
}

// burstWindows is the planner: the DES windows of a defaulted cfg
// whose workload is gen.
func burstWindows(cfg Config, gen *workload.Generator) []workload.BurstWindow {
	return gen.BurstWindows(cfg.Duration, cfg.HybridIntensity, cfg.HybridGuard, fluidStep)
}

// desWindows runs the fluid model over the whole horizon, accruing
// outside wins only, and derives each window's warm-start state from
// the model at the window's opening instant.
func (m *fluidModel) desWindows(wins []workload.BurstWindow) []desWindow {
	des := make([]desWindow, len(wins))
	from := time.Duration(0)
	for i, w := range wins {
		m.integrate(from, w.Start)
		des[i] = desWindow{
			index:       i,
			start:       w.Start,
			end:         w.End,
			initServers: m.fleet.Desired(),
			backlog:     int(math.Round(m.gen.Rate(w.Start) * m.meanSvc)),
		}
		from = w.End
	}
	m.integrate(from, m.cfg.Duration)
	return des
}

// PlanFidelity runs only the planner: the partition a FidelityAuto run
// of cfg would execute, whatever cfg's own fidelity. Deterministic — no
// RNG is consulted.
func PlanFidelity(cfg Config) (*FidelityPlan, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	return &FidelityPlan{Windows: burstWindows(cfg, gen)}, nil
}

// HybridRun is pool.Run(cfg) at FidelityAuto. It stays only because
// bench's elperf calls it by name; set Config.Fidelity instead.
func HybridRun(cfg Config, pool *Pool) (*Result, error) {
	cfg.Fidelity = FidelityAuto
	return pool.Run(cfg)
}

// runHybrid runs a defaulted cfg through the fluid model: over the
// whole horizon at FidelityFluid, and at FidelityAuto with
// request-level DES (honoring Config.Shards) inside the planner's burst
// windows, state stitched across each boundary. The result is a pure
// function of (config, seed, plan) at any -parallel.
//
// Compared to FidelityDES, the Result's Latency, P95Series and
// Utilization cover only the DES windows — the storm regimes, which
// are the ones with latency worth measuring — while Served, VM-hours,
// egress and Cost cover the whole horizon. Shards/ShardEvents stay zero
// (window shard layouts are per-window; FluidSimHours/DESSimHours
// record the fidelity split instead).
func runHybrid(cfg Config, pool *Pool) (*Result, error) {
	m, err := newFluidModel(cfg)
	if err != nil {
		return nil, err
	}
	var plan []workload.BurstWindow
	if cfg.Fidelity == FidelityAuto {
		plan = burstWindows(cfg, m.gen)
	}
	des := m.desWindows(plan)

	// DES windows as ordinary pool jobs, seeded per window.
	results := make([]*Result, len(des))
	if len(des) > 0 {
		if err := pool.ForEach(len(des), func(i int) error {
			r, err := runHybridWindow(cfg, pool, des[i])
			if err != nil {
				return fmt.Errorf("hybrid window %d: %w", i, err)
			}
			results[i] = r
			return nil
		}); err != nil {
			return nil, err
		}
	}

	return stitchHybrid(m, des, results)
}

// runHybridWindow executes one planned DES window of a defaulted cfg
// with the seed runHybrid applies, honoring cfg.Shards. A host failure
// outside the window never fires in it: the engine schedules only a
// failure inside its own slice of the horizon.
func runHybridWindow(cfg Config, pool *Pool, w desWindow) (*Result, error) {
	sub := cfg
	sub.Seed = SeedFor(cfg.Seed, fmt.Sprintf("hybrid/%d", w.index))
	return shardedRun(sub, pool, &w)
}

// HybridSpotCheck runs window i of cfg's fidelity plan alone, exactly
// as a FidelityAuto run would run it — same seed, same warm-start
// state, same shard layout — and returns its standalone, unbilled,
// audited Result. It plans whatever cfg's own fidelity. It is the
// honesty probe: a pure request-level measurement of one burst window
// that the hybrid artifact can be checked against (table11's
// spot-check row). It is the one run path besides Pool.Run, because it
// runs one window of a plan rather than a config.
func HybridSpotCheck(cfg Config, pool *Pool, i int) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		return nil, err
	}
	des := m.desWindows(burstWindows(cfg, m.gen))
	if i < 0 || i >= len(des) {
		return nil, fmt.Errorf("scenario: spot-check window %d of a %d-window plan", i, len(des))
	}
	res, err := runHybridWindow(cfg, pool, des[i])
	if err != nil {
		return nil, err
	}
	if err := res.Audit(); err != nil {
		return nil, err
	}
	return res, nil
}

// stitchHybrid folds the window results into the fluid model's own
// Result, in window-index order so every float reduction has one fixed
// evaluation order. With no windows it is the fluid Result as finish
// leaves it, or finish's error.
func stitchHybrid(m *fluidModel, des []desWindow, wins []*Result) (*Result, error) {
	res, err := m.finish()
	if err != nil || len(wins) == 0 {
		return res, err
	}
	fluidCDNGB := res.CDNGB
	var upHours float64
	for i, r := range wins {
		res.add(r)
		// Windows and fluid segments are disjoint in time: the peak is
		// the largest of theirs.
		res.PeakServers = max(res.PeakServers, r.PeakServers)
		hours := (des[i].end - des[i].start).Hours()
		res.DESSimHours += hours
		upHours += r.NetAvailability * hours
	}
	// The windows' in-flight requests join the served mass: the fluid
	// side they return to assumes all offered load completes.
	res.Served += uint64(res.InFlight)
	res.InFlight = 0
	// Last-mile availability is only simulated inside windows, so it is
	// theirs, weighted by their lengths.
	res.NetAvailability = upHours / res.DESSimHours

	// Edge hit ratio: byte-weighted blend of the fluid segments'
	// analytic ratio and the windows' realized ratios.
	if res.CDNGB > 0 {
		hitW := m.cdnHit * fluidCDNGB
		for _, r := range wins {
			hitW += r.CDNHitRatio * r.CDNGB
		}
		res.CDNHitRatio = hitW / res.CDNGB
	}

	// Fleet-size series: fluid grid samples merged with the windows'
	// minute samples, in time order (spans are disjoint by plan).
	// Utilization and the P95 window series exist only at request
	// level, so they concatenate the windows' samples.
	servers := []*metrics.TimeSeries{res.Servers}
	util := make([]*metrics.TimeSeries, 0, len(wins))
	p95 := make([]*metrics.TimeSeries, 0, len(wins))
	for _, r := range wins {
		servers = append(servers, r.Servers)
		util = append(util, r.Utilization)
		p95 = append(p95, r.P95Series)
	}
	res.Servers = mergeByTime("servers", servers)
	res.Utilization = mergeByTime("load-per-server", util)
	res.P95Series = mergeByTime("p95-window", p95)
	return res, nil
}

// mergeByTime k-way-merges time-ordered series into one, preserving
// each source's internal order and breaking At ties by source order —
// a fixed, scheduling-independent result.
func mergeByTime(name string, parts []*metrics.TimeSeries) *metrics.TimeSeries {
	out := metrics.NewTimeSeries(name)
	pts := make([][]metrics.Point, len(parts))
	total := 0
	for i, p := range parts {
		if p != nil {
			pts[i] = p.Points()
			total += len(pts[i])
		}
	}
	out.Grow(total)
	idx := make([]int, len(parts))
	for {
		best := -1
		for i := range pts {
			if idx[i] >= len(pts[i]) {
				continue
			}
			if best < 0 || pts[i][idx[i]].At < pts[best][idx[best]].At {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		p := pts[best][idx[best]]
		out.Add(p.At, p.Value)
		idx[best]++
	}
}
