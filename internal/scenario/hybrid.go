package scenario

// This file is the auto-fidelity hybrid runner: the fluid model
// integrates the quiet stretches of the horizon, request-level DES
// simulates the bursty windows, and the seams are stitched under
// documented rules. The construction:
//
//   - The planner asks the workload for its burst windows
//     (workload.BurstWindows): envelope segments whose crowd/storm/join
//     multiplier bound reaches Config.HybridIntensity, padded by
//     Config.HybridGuard on each side and aligned to the fluid
//     integration grid (fluidStep), so fluid segments accumulate floats
//     in exactly FluidRun's order. The plan is a pure function of the
//     config — no RNG — so every worker count produces the same plan.
//   - Each DES window runs as an ordinary pool job with RNG streams
//     rooted at SeedFor(seed, "hybrid/<window>"), riding the sharded
//     engine (shardedRun) so Config.Shards applies inside windows; the
//     merged output is a pure function of (config, seed, plan) at any
//     -parallel.
//   - Stitching, fluid→DES: the engine clock warps to the window start
//     (sim.Import), the elastic fleet warm-starts at the fluid model's
//     server count, the queue is seeded with round(rate·meanService)
//     synthetic in-flight jobs (Little's law), and the CDN edge is
//     pre-warmed with popularity-sampled objects. Arrivals begin after
//     bootGrace, inside the guard margin, exactly like a direct run's
//     opening.
//   - Stitching, DES→fluid: requests still in flight at the window's
//     close (CarriedOut) are handed back as served mass — the fluid
//     model assumes all offered load completes — and capacity
//     integration resumes on the next grid instant.
//
// Error sources at a seam, each bounded and tested: the bootGrace
// arrival gap at a window opening (≤ bootGrace × quiet rate requests,
// guard-protected so the gap is quiet); the synthetic backlog's mean
// service approximation; and the in-flight handoff at close (≈ rate ×
// meanService requests counted served without latency samples). The
// boundary property tests in hybrid_test.go pin the conservation
// identity Arrivals == Served + Rejected + Offline + KilledJobs +
// CarriedOut inside every window, VM-hour additivity across seams, the
// exact-FluidRun identity for empty plans, and the cross-fidelity band
// for all-DES plans; the hybrid metamorph family fuzzes the agreement
// against Run.

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/cdn"
	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/workload"
)

// desWindow is one planned DES window with its warm-start state: what
// runEngine needs to open the window as if the simulation had been
// running since t=0.
type desWindow struct {
	index      int
	start, end time.Duration
	// initServers is the public fleet the fluid model runs at the
	// window's opening instant (pre-share; shards scale it down).
	initServers int
	// backlog is the in-flight request count to seed (Little's law at
	// the opening instant, pre-share).
	backlog int
	// cdnWarm is how many popularity-sampled objects to pre-load into
	// the edge cache (zero when the CDN is off).
	cdnWarm int
}

// FidelityPlan is the hybrid planner's partition of the horizon: the
// DES windows, with everything outside them integrated by the fluid
// model. It is exported for tests, table11's plan report and elbench.
type FidelityPlan struct {
	// Windows are the DES windows, sorted and disjoint.
	Windows []workload.BurstWindow
}

// desWindows runs the planner and derives each window's warm-start
// state from the fluid model at the window's opening instant.
func (m *fluidModel) desWindows() []desWindow {
	cfg := m.cfg
	wins := m.gen.BurstWindows(cfg.Duration, cfg.HybridIntensity, cfg.HybridGuard, fluidStep)
	cdnWarm := 0
	if cfg.EnableCDN {
		cdnWarm = 3 * cdn.DefaultConfig(cfg.Courses).CacheObjects
	}
	des := make([]desWindow, len(wins))
	for i, w := range wins {
		pub, _ := m.split(deploy.ServersForPeak(m.gen.Rate(w.Start), m.meanSvc))
		des[i] = desWindow{
			index:       i,
			start:       w.Start,
			end:         w.End,
			initServers: pub,
			backlog:     int(math.Round(m.gen.Rate(w.Start) * m.meanSvc)),
			cdnWarm:     cdnWarm,
		}
	}
	return des
}

// PlanFidelity runs only the planner: the partition HybridRun would
// execute for cfg. Deterministic — no RNG is consulted.
func PlanFidelity(cfg Config) (*FidelityPlan, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	return &FidelityPlan{
		Windows: gen.BurstWindows(cfg.Duration, cfg.HybridIntensity, cfg.HybridGuard, fluidStep),
	}, nil
}

// HybridRun executes cfg at automatic fidelity: fluid integration
// through quiet stretches, request-level DES (honoring Config.Shards)
// inside burst windows, state stitched across each boundary. The
// result is a pure function of (config, seed, plan) at any -parallel.
// A nil pool runs windows on a one-off DefaultWorkers pool.
//
// Compared to Run, the Result's Latency, P95Series and Utilization
// cover only the DES windows — the storm regimes, which are the ones
// with latency worth measuring — while Served, VM-hours, egress and
// Cost cover the whole horizon. Shards/ShardEvents stay zero (window
// shard layouts are per-window; FluidSimHours/DESSimHours record the
// fidelity split instead).
func HybridRun(cfg Config, pool *Pool) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		return nil, err
	}
	des := m.desWindows()

	// Fluid integration over the quiet segments, in time order — the
	// same instants a full FluidRun visits, minus the windows.
	acc := m.newAccum()
	cursor := time.Duration(0)
	for i := range des {
		m.integrate(acc, cursor, des[i].start)
		cursor = des[i].end
	}
	m.integrate(acc, cursor, cfg.Duration)

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

	return stitchHybrid(cfg, m, acc, des, results)
}

// runHybridWindow executes one planned DES window with the seed and
// host-failure gating HybridRun applies, honoring cfg.Shards.
func runHybridWindow(cfg Config, pool *Pool, w desWindow) (*Result, error) {
	sub := cfg
	sub.Seed = SeedFor(cfg.Seed, fmt.Sprintf("hybrid/%d", w.index))
	if sub.HostFailureAt > 0 &&
		(sub.HostFailureAt < w.start || sub.HostFailureAt >= w.end) {
		sub.HostFailureAt = 0 // failure falls in fluid time, not this window
	}
	return shardedRun(sub, pool, &w)
}

// HybridSpotCheck runs window i of cfg's fidelity plan alone, exactly
// as HybridRun would run it — same seed, same warm-start state, same
// shard layout — and returns its standalone Result. It is the honesty
// probe: a pure request-level measurement of one burst window that the
// hybrid artifact can be checked against (table11's spot-check row).
func HybridSpotCheck(cfg Config, pool *Pool, i int) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		return nil, err
	}
	des := m.desWindows()
	if i < 0 || i >= len(des) {
		return nil, fmt.Errorf("scenario: spot-check window %d of a %d-window plan", i, len(des))
	}
	return runHybridWindow(cfg, pool, des[i])
}

// stitchHybrid assembles the fluid accumulators and the window results
// into one whole-horizon Result, folding in window-index order so
// every float reduction has one fixed evaluation order.
func stitchHybrid(cfg Config, m *fluidModel, acc *fluidAccum, des []desWindow, wins []*Result) (*Result, error) {
	f := acc.res
	res := &Result{
		Kind:          cfg.Kind,
		Scaler:        cfg.Scaler,
		Duration:      cfg.Duration,
		Latency:       metrics.DefaultLatency(),
		PrivateHosts:  m.size.PrivateHosts,
		FluidSimHours: acc.hours,
		// Fluid-side totals first; windows fold in below.
		VMHoursPublic:  f.VMHoursPublic,
		VMHoursPrivate: f.VMHoursPrivate,
		PeakServers:    f.PeakServers,
		EgressGB:       acc.egressBytes / 1e9,
		CDNGB:          acc.cdnBytes / 1e9,
		Served:         uint64(math.Round(f.OfferedRequests)),
	}
	fluidCDNGB := res.CDNGB

	for i, r := range wins {
		res.add(r)
		// A window's in-flight handoff joins the served mass: the fluid
		// side it returns to assumes all offered load completes.
		res.Served += r.Served + uint64(r.CarriedOut)
		// Windows and fluid segments are disjoint in time: the peak is
		// the largest of theirs.
		res.PeakServers = max(res.PeakServers, r.PeakServers)
		res.DESSimHours += (des[i].end - des[i].start).Hours()
	}

	// Edge hit ratio: byte-weighted blend of the fluid segments'
	// analytic ratio and the windows' realized ratios.
	if res.CDNGB > 0 {
		hitW := m.cdnHit * fluidCDNGB
		for _, r := range wins {
			hitW += r.CDNHitRatio * r.CDNGB
		}
		res.CDNHitRatio = hitW / res.CDNGB
	} else if cfg.EnableCDN {
		res.CDNHitRatio = m.cdnHit
	}

	// Last-mile availability is only simulated inside windows; the
	// fluid model assumes the line is up.
	res.NetAvailability = 1
	if len(wins) > 0 {
		var avail float64
		for _, r := range wins {
			avail += r.NetAvailability
		}
		res.NetAvailability = avail / float64(len(wins))
	}

	// Fleet-size series: fluid grid samples merged with the windows'
	// minute samples, in time order (spans are disjoint by plan).
	// Utilization and the P95 window series exist only at request
	// level, so they concatenate the windows' samples.
	winServers := make([]*metrics.TimeSeries, 0, len(wins))
	winUtil := make([]*metrics.TimeSeries, 0, len(wins))
	winP95 := make([]*metrics.TimeSeries, 0, len(wins))
	for _, r := range wins {
		winServers = append(winServers, r.Servers)
		winUtil = append(winUtil, r.Utilization)
		winP95 = append(winP95, r.P95Series)
	}
	res.Servers = mergeByTime("servers", append([]*metrics.TimeSeries{f.Servers}, winServers...))
	res.Utilization = mergeByTime("load-per-server", winUtil)
	res.P95Series = mergeByTime("p95-window", winP95)

	if err := res.bill(cfg); err != nil {
		return nil, err
	}
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
