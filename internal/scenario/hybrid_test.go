package scenario

import (
	"fmt"
	"math"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
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
// offline, were killed by a host failure, or were carried out still in
// flight. The identity is a genuine cross-check because CarriedOut
// comes from an independent in-flight counter (admissions minus
// completions and kills), not from rearranging the same tallies.
func TestHybridWindowSeamConservation(t *testing.T) {
	conserved := func(label string, r *Result) {
		t.Helper()
		if r.Arrivals == 0 {
			t.Fatalf("%s: no arrivals", label)
		}
		got := r.Served + r.Rejected + r.Offline + uint64(r.KilledJobs) + uint64(r.CarriedOut)
		if got != r.Arrivals {
			t.Errorf("%s: conservation broken: %d arrivals vs %d served + %d rejected + %d offline + %d killed + %d carried-out = %d",
				label, r.Arrivals, r.Served, r.Rejected, r.Offline, r.KilledJobs, r.CarriedOut, got)
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
	for _, shards := range []int{1, 3} {
		for _, w := range m.desWindows() {
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
	w := pm.desWindows()[0]
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

// The stitched whole must equal the sum of its parts: the merged
// VM-hours are exactly the fluid segments' integral plus each window's
// metered consumption, and the fidelity split partitions the horizon.
func TestHybridStitchIsAdditive(t *testing.T) {
	cfg := stormyCfg(5)
	res, err := HybridRun(cfg, NewPool(2))
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
	des := m.desWindows()

	// Recompute the fluid side alone over the quiet segments.
	acc := m.newAccum()
	cursor := time.Duration(0)
	for _, w := range des {
		m.integrate(acc, cursor, w.start)
		cursor = w.end
	}
	m.integrate(acc, cursor, cfg.Duration)

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

	if got, want := res.VMHoursPublic, acc.res.VMHoursPublic+winPub; math.Abs(got-want) > 1e-6 {
		t.Errorf("public VM-hours not additive across seams: stitched %.6f vs fluid %.6f + windows %.6f", got, acc.res.VMHoursPublic, winPub)
	}
	if got, want := res.VMHoursPrivate, acc.res.VMHoursPrivate+winPriv; math.Abs(got-want) > 1e-6 {
		t.Errorf("private VM-hours not additive: stitched %.6f vs %.6f", got, want)
	}
	if got, want := res.EgressGB, acc.egressBytes/1e9+winEgress; math.Abs(got-want) > 1e-9 {
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

// A config with no storms, joins or crowds plans zero DES windows, and
// the hybrid path must then equal FluidRun exactly — same floats, same
// bill — because the fluid segments step through the same instants in
// the same order.
func TestHybridEmptyPlanMatchesFluidExactly(t *testing.T) {
	for _, kind := range []deploy.Kind{deploy.Public, deploy.Hybrid, deploy.Private} {
		cfg := Config{
			Seed:              9,
			Kind:              kind,
			Students:          1200,
			ReqPerStudentHour: 40,
			Duration:          12 * time.Hour,
			EnableCDN:         kind != deploy.Private,
		}
		plan, err := PlanFidelity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Windows) != 0 {
			t.Fatalf("%v: quiet config planned %d DES windows", kind, len(plan.Windows))
		}
		h, err := HybridRun(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := FluidRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if h.VMHoursPublic != f.VMHoursPublic || h.VMHoursPrivate != f.VMHoursPrivate {
			t.Errorf("%v: VM-hours diverged: hybrid %.6f/%.6f vs fluid %.6f/%.6f",
				kind, h.VMHoursPublic, h.VMHoursPrivate, f.VMHoursPublic, f.VMHoursPrivate)
		}
		if h.EgressGB != f.EgressGB || h.CDNGB != f.CDNGB {
			t.Errorf("%v: bytes diverged: hybrid %.6f/%.6f vs fluid %.6f/%.6f",
				kind, h.EgressGB, h.CDNGB, f.EgressGB, f.CDNGB)
		}
		if h.PeakServers != f.PeakServers || h.PrivateHosts != f.PrivateHosts {
			t.Errorf("%v: sizing diverged: hybrid %d/%d vs fluid %d/%d",
				kind, h.PeakServers, h.PrivateHosts, f.PeakServers, f.PrivateHosts)
		}
		if h.Cost != f.Cost {
			t.Errorf("%v: bill diverged: hybrid %+v vs fluid %+v", kind, h.Cost, f.Cost)
		}
		if want := uint64(math.Round(f.OfferedRequests)); h.Served != want {
			t.Errorf("%v: served %d != rounded fluid offered mass %d", kind, h.Served, want)
		}
		if h.Events != 0 || h.DESSimHours != 0 {
			t.Errorf("%v: empty plan ran DES anyway: %d events, %.2f DES hours", kind, h.Events, h.DESSimHours)
		}
	}
}

// The degenerate plan at the other extreme — an intensity threshold of
// 1 classifies every segment as a burst, so one DES window covers the
// whole horizon — must agree with plain Run within the cross-fidelity
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

	h, err := HybridRun(cfg, nil)
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

// The stitched fleet-size series must be continuous at every fluid→DES
// seam: the window's first sample starts from the warm-started fleet,
// not from a cold bootstrap, so it stays within a small band of the
// fluid level just before the boundary.
func TestHybridWarmFleetContinuity(t *testing.T) {
	cfg := stormyCfg(13)
	res, err := HybridRun(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFidelity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Servers.Points()
	for _, w := range plan.Windows {
		if w.Start == 0 {
			continue // no fluid side before a window at the origin
		}
		var before, first float64
		var haveFirst bool
		for _, p := range pts {
			if p.At < w.Start {
				before = p.Value
			} else if !haveFirst {
				first = p.Value
				haveFirst = true
				break
			}
		}
		if !haveFirst {
			t.Fatalf("no samples inside window starting %v", w.Start)
		}
		if before <= 0 {
			t.Fatalf("no fluid level before window at %v", w.Start)
		}
		if first < 0.5*before || first > 3*before {
			t.Errorf("fleet discontinuous at %v seam: fluid %.0f servers, window opens at %.0f", w.Start, before, first)
		}
	}
}

// HybridRun's output must be a pure function of (config, seed, plan):
// identical at any pool parallelism and with sharded windows.
func TestHybridDeterminismAcrossParallel(t *testing.T) {
	cfg := stormyCfg(17)
	cfg.Shards = 2 // windows honor Config.Shards

	a, err := HybridRun(cfg, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := HybridRun(cfg, NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.Rejected != b.Rejected || a.Offline != b.Offline ||
		a.Arrivals != b.Arrivals || a.Events != b.Events ||
		a.CarriedIn != b.CarriedIn || a.CarriedOut != b.CarriedOut {
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
