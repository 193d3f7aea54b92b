package scenario

import (
	"fmt"
	"math"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// stormyCfg is the shared fixture for the stitching tests: a public
// deployment with one live-session join storm and one deadline storm,
// so the planner emits two disjoint DES windows with quiet fluid
// stretches before, between and after them.
func stormyCfg(seed uint64) Config {
	return Config{
		Seed:              seed,
		Kind:              deploy.Public,
		Students:          1500,
		ReqPerStudentHour: 40,
		Duration:          8 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Joins: []workload.JoinStorm{
			{Start: 2 * time.Hour, Window: 30 * time.Minute, PeakMult: 3},
		},
		Storms: []workload.DeadlineStorm{
			{Deadline: 6 * time.Hour, Ramp: 90 * time.Minute, PeakMult: 4},
		},
	}
}

func TestHybridPlanIsPureAndAligned(t *testing.T) {
	cfg := stormyCfg(1)
	a, err := PlanFidelity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFidelity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Windows) == 0 {
		t.Fatal("stormy config planned no DES windows")
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("plan not deterministic: %d vs %d windows", len(a.Windows), len(b.Windows))
	}
	prevEnd := time.Duration(-1)
	for i, w := range a.Windows {
		if b.Windows[i] != w {
			t.Fatalf("plan not deterministic: window %d %+v vs %+v", i, w, b.Windows[i])
		}
		if w.Start%fluidStep != 0 || w.End%fluidStep != 0 {
			t.Errorf("window %d [%v,%v) not aligned to the %v fluid grid", i, w.Start, w.End, fluidStep)
		}
		if w.Start < 0 || w.End > cfg.Duration || w.End <= w.Start {
			t.Errorf("window %d [%v,%v) outside horizon or empty", i, w.Start, w.End)
		}
		if w.Start <= prevEnd {
			t.Errorf("window %d starts at %v, before previous end %v", i, w.Start, prevEnd)
		}
		prevEnd = w.End
	}
}

// Every DES window must conserve requests across its seams: nothing is
// created or destroyed at a boundary, so arrivals inside the window
// are exactly the requests that completed, were rejected, were lost
// offline, were killed by a host failure, or were still in flight at
// its close — the identity Result.Audit checks. It is a genuine
// cross-check because InFlight comes from an independent in-flight
// counter (admissions minus completions and kills), not from
// rearranging the same tallies.
func TestHybridWindowSeamConservation(t *testing.T) {
	conserved := func(label string, r *Result) {
		t.Helper()
		if r.Arrivals == 0 {
			t.Fatalf("%s: no arrivals", label)
		}
		if err := r.Audit(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}

	cfg := stormyCfg(3)
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wins := m.desWindows(burstWindows(cfg, m.gen))
	for _, shards := range []int{1, 3} {
		for _, w := range wins {
			w := w
			sub := cfg
			sub.Shards = shards
			sub.Seed = SeedFor(cfg.Seed, fmt.Sprintf("hybrid/%d", w.index))
			r, err := shardedRun(sub, nil, &w)
			if err != nil {
				t.Fatal(err)
			}
			conserved(fmt.Sprintf("shards=%d window %d", shards, w.index), r)
			if r.CarriedIn == 0 && w.backlog > 0 {
				t.Errorf("shards=%d window %d: backlog of %d planned but no CarriedIn recorded", shards, w.index, w.backlog)
			}
		}
	}

	// A host failure inside a private window kills requests. They leave
	// the in-flight count as they die, so none is also carried out (and
	// stitched in as served) at the closing seam.
	priv := stormyCfg(3)
	priv.Kind = deploy.Private
	priv.HostFailureAt = 2*time.Hour + 7*time.Minute + 30*time.Second
	priv.HostRecoveryAfter = 10 * time.Minute
	if err := priv.defaults(); err != nil {
		t.Fatal(err)
	}
	pm, err := newFluidModel(priv)
	if err != nil {
		t.Fatal(err)
	}
	w := pm.desWindows(burstWindows(priv, pm.gen))[0]
	if priv.HostFailureAt < w.start || priv.HostFailureAt >= w.end {
		t.Fatalf("private window 0 [%v, %v) does not hold the host failure at %v", w.start, w.end, priv.HostFailureAt)
	}
	r, err := runHybridWindow(priv, nil, w)
	if err != nil {
		t.Fatal(err)
	}
	conserved("private host-failure window", r)
	if r.KilledJobs == 0 {
		t.Error("private host-failure window killed no request")
	}
}

// A window's ledgers start at its opening: its tracked session saves
// from the window's start, so a disconnect destroys at most the work
// since the last autosave, and the last mile's availability is the
// share of the window's own time the line was up. The probe opens a
// 20-minute window at hour 30 on a line that fails every 10 minutes
// on average; an observer on the line measures the downtime.
func TestHybridWindowLedgersStartAtOpening(t *testing.T) {
	access := network.RuralDSL
	access.MTBF, access.MTTR = 600, 60
	win := desWindow{start: 30 * time.Hour, end: 30*time.Hour + 20*time.Minute, initServers: 2}
	disconnects := 0
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := Config{
			Seed: seed, Kind: deploy.Public, Students: 200, Duration: 31 * time.Hour,
			Diurnal: workload.FlatDiurnal(), Access: access, TrackedSessions: 1,
		}
		if err := cfg.defaults(); err != nil {
			t.Fatal(err)
		}
		e := &engine{cfg: cfg, eng: sim.NewEngine(cfg.Seed), win: &win, lineSeed: cfg.Seed}
		if err := e.build(); err != nil {
			t.Fatal(err)
		}
		var down, downSince time.Duration
		e.topo.LastMile.Failure().OnChange(func(up bool) {
			if up {
				down += e.eng.Now() - downSince
			} else {
				downSince = e.eng.Now()
			}
		})
		e.eng.Run(e.endAt)
		if !e.topo.LastMile.Up() {
			down += e.endAt - downSince
		}
		for _, stop := range e.stops {
			stop()
		}
		r := e.collect()
		disconnects += r.Disconnects
		if limit := time.Duration(r.Disconnects) * cfg.AutosaveEvery; r.LostWork > limit {
			t.Errorf("seed %d: lost %v of work in %d disconnects, more than one autosave interval each (%v)",
				seed, r.LostWork, r.Disconnects, limit)
		}
		want := 1 - float64(down)/float64(win.end-win.start)
		if math.Abs(r.NetAvailability-want) > 1e-12 {
			t.Errorf("seed %d: availability %v, want %v (%v down in the %v window)",
				seed, r.NetAvailability, want, down, win.end-win.start)
		}
	}
	if disconnects == 0 {
		t.Fatal("no seed disconnected: the probe checks nothing")
	}
}

// The stitched whole must equal the sum of its parts: the merged
// VM-hours are exactly the fluid segments' integral plus each window's
// metered consumption, and the fidelity split partitions the horizon.
func TestHybridStitchIsAdditive(t *testing.T) {
	cfg := stormyCfg(5)
	res, err := NewPool(2).Run(at(cfg, FidelityAuto))
	if err != nil {
		t.Fatal(err)
	}

	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The planning pass accrues the fluid side alone, over the quiet
	// segments.
	des := m.desWindows(burstWindows(cfg, m.gen))
	fluid, err := m.finish()
	if err != nil {
		t.Fatal(err)
	}

	// Re-run each window alone.
	var winPub, winPriv, winEgress float64
	var desHours float64
	for _, w := range des {
		w := w
		sub := cfg
		sub.Seed = SeedFor(cfg.Seed, fmt.Sprintf("hybrid/%d", w.index))
		r, err := shardedRun(sub, nil, &w)
		if err != nil {
			t.Fatal(err)
		}
		winPub += r.VMHoursPublic
		winPriv += r.VMHoursPrivate
		winEgress += r.EgressGB
		desHours += (w.end - w.start).Hours()
	}

	if got, want := res.VMHoursPublic, fluid.VMHoursPublic+winPub; math.Abs(got-want) > 1e-6 {
		t.Errorf("public VM-hours not additive across seams: stitched %.6f vs fluid %.6f + windows %.6f", got, fluid.VMHoursPublic, winPub)
	}
	if got, want := res.VMHoursPrivate, fluid.VMHoursPrivate+winPriv; math.Abs(got-want) > 1e-6 {
		t.Errorf("private VM-hours not additive: stitched %.6f vs %.6f", got, want)
	}
	if got, want := res.EgressGB, fluid.EgressGB+winEgress; math.Abs(got-want) > 1e-9 {
		t.Errorf("egress not additive: stitched %.6f vs %.6f", got, want)
	}
	if math.Abs(res.FluidSimHours+res.DESSimHours-cfg.Duration.Hours()) > 1e-9 {
		t.Errorf("fidelity split %.4f + %.4f doesn't partition the %.4f h horizon",
			res.FluidSimHours, res.DESSimHours, cfg.Duration.Hours())
	}
	if math.Abs(res.DESSimHours-desHours) > 1e-9 {
		t.Errorf("DES hours %.4f != planned window hours %.4f", res.DESSimHours, desHours)
	}
}

// The degenerate plan at the other extreme — an intensity threshold of
// 1 classifies every segment as a burst, so one DES window covers the
// whole horizon — must agree with plain Run within the fidelity-agreement
// band: the only seams left are the horizon's own edges, so the hybrid
// path is a request-level simulation with a warm-started fleet and a
// bootGrace arrival gap.
func TestHybridAllDESPlanTracksRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two request-level scenarios over 8h")
	}
	cfg := stormyCfg(11)
	cfg.HybridIntensity = 1 // every segment's multiplier bound is >= 1

	plan, err := PlanFidelity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Windows) != 1 || plan.Windows[0].Start != 0 || plan.Windows[0].End != cfg.Duration {
		t.Fatalf("intensity 1 should plan one horizon-wide window, got %+v", plan.Windows)
	}

	h, err := Run(at(cfg, FidelityAuto))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.FluidSimHours != 0 {
		t.Errorf("all-DES plan still integrated %.2f fluid hours", h.FluidSimHours)
	}

	// Served mass: the window drops ~bootGrace of arrivals at the
	// opening seam and counts its carried-out tail as served, both
	// small against an 8h horizon.
	servedRatio := float64(h.Served) / float64(d.Served)
	if servedRatio < 0.97 || servedRatio > 1.03 {
		t.Errorf("served ratio %.4f outside [0.97,1.03]: hybrid %d vs run %d", servedRatio, h.Served, d.Served)
	}
	// Elastic consumption: same scaler, same horizon; the warm start
	// can only shift the opening minutes.
	vmRatio := h.VMHoursPublic / d.VMHoursPublic
	if vmRatio < 0.85 || vmRatio > 1.15 {
		t.Errorf("VM-hours ratio %.4f outside [0.85,1.15]: hybrid %.1f vs run %.1f", vmRatio, h.VMHoursPublic, d.VMHoursPublic)
	}
	egressRatio := h.EgressGB / d.EgressGB
	if egressRatio < 0.95 || egressRatio > 1.05 {
		t.Errorf("egress ratio %.4f outside [0.95,1.05]: hybrid %.2f vs run %.2f", egressRatio, h.EgressGB, d.EgressGB)
	}
}

// Every fluid→DES seam hands the window the fleet the fluid model was
// running: the window's request-level fleet opens at the fluid fleet's
// Desired at the window's start, which a whole-horizon fluid pass
// reaches at the same instant.
func TestHybridWarmFleetContinuity(t *testing.T) {
	cfg := stormyCfg(13)
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wins := m.desWindows(burstWindows(cfg, m.gen))
	if len(wins) == 0 {
		t.Fatal("stormy config planned no DES windows")
	}
	for _, w := range wins {
		fluid, err := newFluidModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fluid.integrate(0, w.start)
		if got := fluid.fleet.Desired(); got != w.initServers {
			t.Errorf("window at %v: planned warm fleet %d, fluid fleet holds %d", w.start, w.initServers, got)
		}
		e := &engine{cfg: cfg, eng: sim.NewEngine(cfg.Seed), win: &w}
		if err := e.build(); err != nil {
			t.Fatal(err)
		}
		if got := e.pubFleet.Desired(); got != w.initServers {
			t.Errorf("window at %v opens at %d servers, fluid fleet held %d", w.start, got, w.initServers)
		}
	}
}

// An auto-fidelity run's output must be a pure function of (config,
// seed, plan): identical at any pool parallelism and with sharded
// windows.
func TestHybridDeterminismAcrossParallel(t *testing.T) {
	cfg := at(stormyCfg(17), FidelityAuto)
	cfg.Shards = 2 // windows honor Config.Shards

	a, err := NewPool(1).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPool(4).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.Rejected != b.Rejected || a.Offline != b.Offline ||
		a.Arrivals != b.Arrivals || a.Events != b.Events ||
		a.CarriedIn != b.CarriedIn || a.InFlight != b.InFlight {
		t.Fatalf("counters diverged across parallelism: %+v vs %+v", a, b)
	}
	for _, pair := range [][2]float64{
		{a.VMHoursPublic, b.VMHoursPublic},
		{a.EgressGB, b.EgressGB},
		{a.CDNHitRatio, b.CDNHitRatio},
		{a.Latency.Sum(), b.Latency.Sum()},
		{a.Cost.Total(), b.Cost.Total()},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("float diverged across parallelism: %v vs %v", pair[0], pair[1])
		}
	}
	ap, bp := a.Servers.Points(), b.Servers.Points()
	if len(ap) != len(bp) {
		t.Fatalf("server series length diverged: %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("server series diverged at %d: %+v vs %+v", i, ap[i], bp[i])
		}
	}
}

// mergeByTime sizes its output once, so stitching a ten-week horizon's
// fluid samples leaves no chain of discarded copies: its allocations do
// not grow with the merged length.
func TestMergeByTimeSizesOnce(t *testing.T) {
	merge := func(n int) float64 {
		fluid := metrics.NewTimeSeries("fluid")
		for i := 0; i < n; i++ {
			fluid.Add(time.Duration(i)*fluidStep, float64(i))
		}
		win := metrics.NewTimeSeries("window")
		for i := 0; i < 60; i++ {
			win.Add(time.Hour+time.Duration(i)*time.Minute, -1)
		}
		parts := []*metrics.TimeSeries{fluid, win, nil}
		if got, want := mergeByTime("servers", parts).Len(), n+win.Len(); got != want {
			t.Fatalf("merged %d samples, want %d", got, want)
		}
		return testing.AllocsPerRun(1, func() { mergeByTime("servers", parts) })
	}
	if short, long := merge(20), merge(10000); long != short {
		t.Fatalf("mergeByTime allocated %v times for 10,060 samples and %v for 80, want the same", long, short)
	}
}
