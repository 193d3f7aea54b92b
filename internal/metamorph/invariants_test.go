package metamorph

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// TestInvariantsRegistry: the suite has stable names, FindInvariant
// round-trips, and the Lite subset is exactly the generator-level
// checks the fuzz target runs.
func TestInvariantsRegistry(t *testing.T) {
	want := []string{
		"growth-monotone", "envelope-bound", "superpose-bound",
		"parallel-determinism", "capacity-monotone", "cross-fidelity",
		"shard-determinism", "hybrid-determinism", "hybrid-agreement",
		"advisor", "seed-band",
	}
	invs := Invariants()
	if len(invs) != len(want) {
		t.Fatalf("Invariants() = %d entries, want %d", len(invs), len(want))
	}
	lite, band := 0, 0
	for i, inv := range invs {
		if inv.Name != want[i] {
			t.Errorf("invariant %d = %s, want %s", i, inv.Name, want[i])
		}
		if inv.Lite {
			lite++
		}
		if inv.Band {
			band++
		}
		if inv.Lite && inv.Band {
			t.Errorf("invariant %s is both Lite and Band", inv.Name)
		}
		got, err := FindInvariant(inv.Name)
		if err != nil || got.Name != inv.Name {
			t.Errorf("FindInvariant(%s) = %v, %v", inv.Name, got.Name, err)
		}
	}
	if lite != 3 {
		t.Errorf("Lite invariants = %d, want 3 (the generator-level checks)", lite)
	}
	if band != 1 {
		t.Errorf("Band invariants = %d, want 1 (the cross-seed statistical check)", band)
	}
	if _, err := FindInvariant("nope"); err == nil {
		t.Error("FindInvariant(nope) did not error")
	}
}

// TestCheckCaseLite: Lite mode runs only generator-level invariants —
// no scenario.Run — and a healthy generated case passes them all.
func TestCheckCaseLite(t *testing.T) {
	for _, f := range Families() {
		c := f.Case(CaseSeed(3, f.Name, 0))
		rep := CheckCase(c, Options{Lite: true})
		if len(rep.Results) != 3 {
			t.Fatalf("%s: Lite CheckCase ran %d checks, want 3", f.Name, len(rep.Results))
		}
		for _, cr := range rep.Results {
			if cr.V != nil {
				t.Errorf("%s %s: %s", f.Name, cr.Name, cr.V.Detail)
			}
		}
	}
}

// TestGrowthMonotoneHolds: both growth constructors satisfy the
// monotone invariant on a MOOC-shaped config.
func TestGrowthMonotoneHolds(t *testing.T) {
	for _, g := range []*workload.Growth{
		workload.LinearGrowth(500, 4000, 2*time.Hour),
		workload.LogisticGrowth(500, 4000, 90*time.Minute),
	} {
		cfg := scenario.Config{Growth: g, Duration: 4 * time.Hour}
		if v, skip := checkGrowthMonotone(cfg, 1); skip != "" || v != nil {
			t.Errorf("growth %v: violation %v skip %q", g, v, skip)
		}
	}
	if _, skip := checkGrowthMonotone(scenario.Config{Students: 100}, 1); skip == "" {
		t.Error("growth-monotone did not skip a growth-free config")
	}
}

// TestEnvelopeBoundHolds: a storm-heavy config samples under its own
// envelope.
func TestEnvelopeBoundHolds(t *testing.T) {
	cfg := scenario.Config{
		Students:          400,
		ReqPerStudentHour: 40,
		Duration:          2 * time.Hour,
		Storms: []workload.DeadlineStorm{
			{Deadline: 90 * time.Minute, Ramp: time.Hour, PeakMult: 8},
		},
	}
	if v, skip := checkEnvelopeBound(cfg, 5); skip != "" || v != nil {
		t.Errorf("envelope-bound: violation %v skip %q", v, skip)
	}
}

// TestSuperposeBoundHolds across a seed spread: the weighted-mean bound
// is exact at hour anchors, whatever waves are drawn.
func TestSuperposeBoundHolds(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		if v, skip := checkSuperposeBound(scenario.Config{}, seed); skip != "" || v != nil {
			t.Errorf("seed %d: violation %v skip %q", seed, v, skip)
		}
	}
}

// TestParallelDeterminismHolds on one real generated case per family
// (the full pooled comparison; the fuzz lane covers breadth).
func TestParallelDeterminismHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	c := FindFamilyOrDie(t, "campus").Case(CaseSeed(9, "campus", 1))
	if v, skip := checkParallelDeterminism(c.Cfg, c.Seed); skip != "" || v != nil {
		t.Errorf("parallel-determinism: violation %v skip %q", v, skip)
	}
}

// TestShardDeterminismHolds exercises both branches of the invariant on
// generated cases: single-shard identity on a campus case, and the
// worker-independence + physics clause on a case forced to 3 shards.
func TestShardDeterminismHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	c := FindFamilyOrDie(t, "campus").Case(CaseSeed(9, "campus", 2))
	c.Cfg.Shards = 0
	if v, skip := checkShardDeterminism(c.Cfg, c.Seed); skip != "" || v != nil {
		t.Errorf("single-shard identity: violation %v skip %q", v, skip)
	}
	c.Cfg.Shards = 3
	if v, skip := checkShardDeterminism(c.Cfg, c.Seed); skip != "" || v != nil {
		t.Errorf("multi-shard: violation %v skip %q", v, skip)
	}
}

// TestHybridDeterminismHolds: the hybrid runner's worker-independence
// on a generated storm-laden case, sharded and not.
func TestHybridDeterminismHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	c := FindFamilyOrDie(t, "hybrid").Case(CaseSeed(9, "hybrid", 0))
	c.Cfg.Shards = 0
	if v, skip := checkHybridDeterminism(c.Cfg, c.Seed); skip != "" || v != nil {
		t.Errorf("unsharded: violation %v skip %q", v, skip)
	}
	c.Cfg.Shards = 3
	if v, skip := checkHybridDeterminism(c.Cfg, c.Seed); skip != "" || v != nil {
		t.Errorf("sharded windows: violation %v skip %q", v, skip)
	}
}

// TestHybridAgreementSkips: the regimes the seam comparison does not
// cover are skipped with a stated reason, not silently passed.
func TestHybridAgreementSkips(t *testing.T) {
	base := scenario.Config{
		Students: 400, Duration: 4 * time.Hour,
		Storms: []workload.DeadlineStorm{
			{Deadline: 2 * time.Hour, Ramp: time.Hour, PeakMult: 6},
		},
	}
	for name, mutate := range map[string]func(*scenario.Config){
		"desktop":      func(c *scenario.Config) { c.Kind = deploy.Desktop },
		"short":        func(c *scenario.Config) { c.Duration = time.Hour },
		"host-failure": func(c *scenario.Config) { c.HostFailureAt = time.Hour },
		"threats":      func(c *scenario.Config) { c.EnableThreats = true },
		"exam-storm":   func(c *scenario.Config) { c.Storms[0].ExamTraffic = true },
		"empty-plan":   func(c *scenario.Config) { c.Storms = nil },
	} {
		cfg := base
		cfg.Storms = append([]workload.DeadlineStorm(nil), base.Storms...)
		mutate(&cfg)
		v, skip := checkHybridAgreement(cfg, 1)
		if v != nil {
			t.Errorf("%s: unexpected violation %v", name, v)
		}
		if skip == "" {
			t.Errorf("%s: expected a skip reason", name)
		}
	}
}

// TestHybridAgreementHolds: a generated hybrid-family case inside the
// covered regime tracks the whole-horizon DES within the bands.
func TestHybridAgreementHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	cfg := scenario.Config{
		Kind: deploy.Public, Students: 500, ReqPerStudentHour: 30,
		Duration: 4 * time.Hour, Diurnal: workload.FlatDiurnal(),
		Scaler: scenario.ScalerReactive,
		Storms: []workload.DeadlineStorm{
			{Deadline: 150 * time.Minute, Ramp: 80 * time.Minute, PeakMult: 6},
		},
		Seed: 0x5eed,
	}
	if v, skip := checkHybridAgreement(cfg, 0x5eed); skip != "" || v != nil {
		t.Errorf("hybrid-agreement: violation %v skip %q", v, skip)
	}
}

// TestHybridAgreementRetentionRegression pins the seeds this PR's
// first hybrid-family sweep (run seed 1) minimized: small hybrid
// deployments whose private side absorbs the base load, leaving a
// public fleet of 1-2 servers that the DES's reactive scaler holds for
// the whole horizon while the hybrid's fluid stretches run it at zero —
// VM-hours ratios of 0.20-0.27 from whole-server quantization, not a
// stitching bug. The both-sides-over-5-VM-hours gate must classify
// them as explained without skipping the exact capex/host clauses.
func TestHybridAgreementRetentionRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	for _, seed := range []uint64{0xc699da707374f890, 0x57e3ea30f79965d6} {
		c := FindFamilyOrDie(t, "hybrid").Case(seed)
		if v, _ := checkHybridAgreement(c.Cfg, c.Seed); v != nil {
			t.Errorf("hybrid seed=%#x: %s", seed, v.Detail)
		}
	}
}

// TestSeedBandGating: the Band invariant only runs when Options.Band
// asks for it — the interactive default must never pay for a 50-seed
// population.
func TestSeedBandGating(t *testing.T) {
	c := FindFamilyOrDie(t, "campus").Case(CaseSeed(9, "campus", 0))
	// An infeasibly huge config makes both passes cheap: the Band run
	// skips on budget, proving it was reached at all.
	c.Cfg.Students = 10_000_000
	names := func(rep Report) map[string]bool {
		out := map[string]bool{}
		for _, cr := range rep.Results {
			out[cr.Name] = true
		}
		return out
	}
	if got := names(CheckCase(c, Options{})); got["seed-band"] {
		t.Error("default CheckCase ran the seed-band invariant")
	}
	got := names(CheckCase(c, Options{Band: true}))
	if !got["seed-band"] {
		t.Error("Options{Band} did not run the seed-band invariant")
	}
	if got := names(CheckCase(c, Options{Lite: true, Band: true})); got["seed-band"] {
		t.Error("Lite mode ran the seed-band invariant (it is not generator-level)")
	}
}

// TestSeedBandHolds: a small storm config's 50-seed populations stay in
// band on both the pure-DES and hybrid paths. This is the cross-seed
// statistical harness the nightly lane runs, pinned here on one case.
func TestSeedBandHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 100 request-level scenarios")
	}
	// CampusLAN keeps the last mile outage-free: the default
	// UrbanBroadband profile fails every ~14 days, which across 50
	// seeds means roughly one seed catches an outage and trips the
	// bandRegime outage gate instead of exercising the band itself.
	cfg := scenario.Config{
		Kind: deploy.Public, Students: 150, ReqPerStudentHour: 20,
		Duration: 3 * time.Hour, Diurnal: workload.FlatDiurnal(),
		Scaler: scenario.ScalerReactive,
		Access: network.CampusLAN,
		Storms: []workload.DeadlineStorm{
			{Deadline: 100 * time.Minute, Ramp: time.Hour, PeakMult: 6},
		},
	}
	if !bandFeasible(cfg) {
		t.Fatal("test config exceeds the band budget — shrink it")
	}
	// The config must actually exercise the hybrid path.
	plan, err := scenario.PlanFidelity(cfg)
	if err != nil || len(plan.Windows) == 0 {
		t.Fatalf("test config planned no DES windows (err=%v)", err)
	}
	if v, skip := checkSeedBand(cfg, 0xba17d); skip != "" || v != nil {
		t.Errorf("seed-band: violation %v skip %q", v, skip)
	}
}

// TestSeedBandRegimeGates pins the cases the first -band sweeps
// flagged: threshold regimes (outage bimodality, saturation rejection,
// tail collapse — see bandRegime) where across-seed dispersion is the
// system's honest behavior. Each must now skip via a regime gate, not
// fire the band — and never report a violation again.
func TestSeedBandRegimeGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 50-seed populations")
	}
	// One cheap representative per regime shape keeps the test inside
	// the tier-1 budget; the nightly -band sweep regenerates the same
	// early case seeds and so still covers the rest (0xe54cadbd79fe224a,
	// 0x70606318406a2908 — a 50-seed population of its 524-student case
	// alone costs ~50s — 0x14c14eb477a93de7, 0xd1aa00f4044537ab), and
	// TestBandRegime pins every gate threshold synthetically.
	for _, tc := range []struct {
		family string
		seed   uint64
	}{
		{"storm", 0xe381ddf4f0539593}, // tail collapse, median P95 2.1s
		{"chaos", 0x7a4bb6d0a24761f2}, // rural-DSL outage bimodality
		// PR 10's resource-band sweep: egress deviation 0.57 around a
		// 1.4 GB median — heavy-tailed video objects on a flaky last
		// mile. The offline-share gate must keep classifying it as
		// outage bimodality now that egress itself is banded (seed
		// 0x922cac3419b47d77 is the same shape at 82 GB).
		{"storm", 0x80f7a36ce9c50d64},
	} {
		t.Run(fmt.Sprintf("%s-%#x", tc.family, tc.seed), func(t *testing.T) {
			c := FindFamilyOrDie(t, tc.family).Case(tc.seed)
			v, skip := checkSeedBand(c.Cfg, c.Seed)
			if v != nil {
				t.Errorf("violation resurfaced: %s", v.Detail)
			}
			if skip == "" {
				t.Error("expected a regime-gate skip, got a clean band pass")
			}
		})
	}
	// The widest population the resource bands must accommodate, not
	// exempt: storm seed 0xc64b3058f820bb6b runs stable service with
	// egress deviation 0.171 and VM-hours deviation 0.087 — an honest
	// in-band pass that would flag first if the tolerances over-tighten.
	t.Run("widest-in-band", func(t *testing.T) {
		c := FindFamilyOrDie(t, "storm").Case(0xc64b3058f820bb6b)
		v, skip := checkSeedBand(c.Cfg, c.Seed)
		if v != nil {
			t.Errorf("widest in-band population now violates: %s", v.Detail)
		}
		if skip != "" {
			t.Errorf("widest in-band population now gated: %s", skip)
		}
	})
}

// TestBandRegime pins the gate thresholds on synthetic populations.
func TestBandRegime(t *testing.T) {
	healthyF := []float64{0.99, 0.98, 1.0}
	healthyP := []float64{0.3, 0.35, 0.4}
	if got := bandRegime("des", healthyF, healthyP, 0); got != "" {
		t.Errorf("healthy population gated: %q", got)
	}
	if got := bandRegime("des", healthyF, healthyP, 0.05); got == "" {
		t.Error("offline share 0.05 not gated")
	}
	if got := bandRegime("des", []float64{0.8, 0.85, 0.9}, healthyP, 0); got == "" {
		t.Error("median served 0.85 not gated")
	}
	if got := bandRegime("des", healthyF, []float64{1.8, 2.1, 5.4}, 0); got == "" {
		t.Error("median P95 2.1s not gated")
	}
}

// TestMedian pins the statistic the band check centers on.
func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// FindFamilyOrDie is a test helper.
func FindFamilyOrDie(t *testing.T, name string) Family {
	t.Helper()
	f, err := FindFamily(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDesFeasible: the request-level budget excludes MOOC-scale and
// week-long configs and admits campus-scale ones.
func TestDesFeasible(t *testing.T) {
	small := scenario.Config{Students: 500, ReqPerStudentHour: 40, Duration: 3 * time.Hour}
	if !desFeasible(small) {
		t.Error("campus-scale config rejected")
	}
	big := scenario.Config{Students: 80000, ReqPerStudentHour: 10, Duration: 6 * time.Hour}
	if desFeasible(big) {
		t.Error("MOOC-scale config admitted")
	}
	long := scenario.Config{Students: 100, ReqPerStudentHour: 10, Duration: 7 * 24 * time.Hour}
	if desFeasible(long) {
		t.Error("week-long config admitted")
	}
}

// TestCrossFidelitySkips: the regimes the fluid model does not cover
// are skipped with a stated reason, not silently passed.
func TestCrossFidelitySkips(t *testing.T) {
	base := scenario.Config{Students: 400, Duration: 4 * time.Hour}
	for name, mutate := range map[string]func(*scenario.Config){
		"desktop":      func(c *scenario.Config) { c.Kind = deploy.Desktop },
		"short":        func(c *scenario.Config) { c.Duration = time.Hour },
		"host-failure": func(c *scenario.Config) { c.HostFailureAt = time.Hour },
		"exam-crowd": func(c *scenario.Config) {
			c.Crowds = []workload.FlashCrowd{{Start: time.Hour, End: 2 * time.Hour, Mult: 3, ExamTraffic: true}}
		},
	} {
		cfg := base
		mutate(&cfg)
		v, skip := checkCrossFidelity(cfg, 1)
		if v != nil {
			t.Errorf("%s: unexpected violation %v", name, v)
		}
		if skip == "" {
			t.Errorf("%s: expected a skip reason", name)
		}
	}
}

// TestCrossFidelitySpikeRegression pins the seeds the first fuzz sweep
// (run seed 2) minimized: small stacked-storm configs where the
// memoryless fluid fleet undercounts the reactive scaler's held
// capacity by 9-20x. The spikiness gate must classify them as
// explained (no violation) without skipping the whole invariant's
// capex/host clauses.
func TestCrossFidelitySpikeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	for fam, seed := range map[string]uint64{
		"storm":  0x28f0f41a83af80e7, // 215-student double storm, ratio was 20.4x
		"campus": 0xfb3abd4466c9728c, // 351-student hybrid crowd, ratio was 13.7x
		// Run-seed-3 find: rural-DSL hybrid whose last-mile outages
		// starve the DES of arrivals the fluid model still integrates
		// (egress ratio was 0.65); the offline-share gate explains it.
		"chaos": 0x743912ad8faad72c,
	} {
		c := FindFamilyOrDie(t, fam).Case(seed)
		if v, _ := checkCrossFidelity(c.Cfg, c.Seed); v != nil {
			t.Errorf("%s seed=%#x: %s", fam, seed, v.Detail)
		}
	}
}

// TestFingerprintDiffLine: the determinism violation message names the
// first drifting field.
func TestFingerprintDiffLine(t *testing.T) {
	d := diffLine("a=1\nb=2\n", "a=1\nb=3\n")
	if !strings.Contains(d, "b=2") || !strings.Contains(d, "b=3") {
		t.Fatalf("diffLine = %q, want both b lines", d)
	}
}
