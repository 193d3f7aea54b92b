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
		"determinism", "capacity-monotone", "fidelity-agreement",
		"advisor", "policy-sanity", "seed-band",
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

// holdsDeterminism runs the determinism invariant on generated case
// index of family at each shard count; the fuzz lane covers breadth.
func holdsDeterminism(t *testing.T, family string, index int, shards ...int) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	c := FindFamilyOrDie(t, family).Case(CaseSeed(9, family, index))
	for _, n := range shards {
		c.Cfg.Shards = n
		if v, skip := checkDeterminism(c.Cfg, c.Seed); skip != "" || v != nil {
			t.Errorf("%s shards=%d: violation %v skip %q", family, n, v, skip)
		}
	}
}

// TestParallelDeterminismHolds: an unsharded campus case matches its
// single-worker reference in the pooled batch, and at Shards = 1.
func TestParallelDeterminismHolds(t *testing.T) { holdsDeterminism(t, "campus", 2, 0) }

// TestShardDeterminismHolds: the same campus case forced to 3 shards is
// worker-independent and within the physics clause of its unsharded run.
func TestShardDeterminismHolds(t *testing.T) { holdsDeterminism(t, "campus", 2, 3) }

// TestHybridDeterminismHolds: a storm-laden hybrid case whose auto run
// opens DES windows, unsharded and at 3 shards.
func TestHybridDeterminismHolds(t *testing.T) { holdsDeterminism(t, "hybrid", 0, 0, 3) }

// TestShardDeterminismAccessLineRegression pins two cases the
// access-line clause of the sharding physics failed on while each shard
// engine drew last-mile outages of its own: at shards=4, chaos
// 0x7276a0aed8c16965 merged 1 disconnect and 0.894 availability where
// the unsharded run had none, and hybrid 0xdb977617ffbc6cf2 merged none
// against the unsharded run's 1 disconnect and 3h21m of lost work.
func TestShardDeterminismAccessLineRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	for _, tc := range []struct {
		family string
		seed   uint64
	}{{"chaos", 0x7276a0aed8c16965}, {"hybrid", 0xdb977617ffbc6cf2}} {
		c := FindFamilyOrDie(t, tc.family).Case(tc.seed)
		if c.Cfg.Shards < 2 {
			t.Fatalf("%s seed=%#x: Shards = %d; the case must stay sharded", tc.family, tc.seed, c.Cfg.Shards)
		}
		v, skip := checkDeterminism(c.Cfg, c.Seed)
		if skip != "" {
			t.Fatalf("%s seed=%#x: skipped (%s); the case must stay in scope", tc.family, tc.seed, skip)
		}
		if v != nil {
			t.Errorf("%s seed=%#x: %s", tc.family, tc.seed, v.Detail)
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

// stormyBase is a public storm day inside the fidelity-agreement
// regime; mutateStormy copies it and applies mutate.
var stormyBase = scenario.Config{
	Students: 400, Duration: 4 * time.Hour,
	Storms: []workload.DeadlineStorm{
		{Deadline: 2 * time.Hour, Ramp: time.Hour, PeakMult: 6},
	},
}

func mutateStormy(mutate func(*scenario.Config)) scenario.Config {
	cfg := stormyBase
	cfg.Storms = append([]workload.DeadlineStorm(nil), stormyBase.Storms...)
	mutate(&cfg)
	return cfg
}

// TestCrossFidelitySkips: the regimes the fluid comparison of
// fidelity-agreement does not cover are skipped with a stated reason,
// not silently passed. Threats and an empty plan leave it standing.
func TestCrossFidelitySkips(t *testing.T) {
	for name, mutate := range map[string]func(*scenario.Config){
		"desktop":      func(c *scenario.Config) { c.Kind = deploy.Desktop },
		"short":        func(c *scenario.Config) { c.Duration = time.Hour },
		"host-failure": func(c *scenario.Config) { c.HostFailureAt = time.Hour },
	} {
		v, skip := checkFidelityAgreement(mutateStormy(mutate), 1)
		if v != nil {
			t.Errorf("%s: unexpected violation %v", name, v)
		}
		if skip == "" {
			t.Errorf("%s: expected a skip reason", name)
		}
	}
	for name, mutate := range map[string]func(*scenario.Config){
		"threats":    func(c *scenario.Config) { c.EnableThreats = true },
		"empty-plan": func(c *scenario.Config) { c.Storms = nil },
	} {
		if skip := agreementScope(mutateStormy(mutate)); skip != "" {
			t.Errorf("%s: the fluid comparison skipped (%s)", name, skip)
		}
	}
	// Each fluid tick reads the mix in force, so an exam crowd is
	// compared, not skipped.
	if testing.Short() {
		return
	}
	exam := mutateStormy(func(c *scenario.Config) {
		c.Storms = nil
		c.Crowds = []workload.FlashCrowd{{Start: time.Hour, End: 2 * time.Hour, Mult: 3, ExamTraffic: true}}
	})
	if v, skip := checkFidelityAgreement(exam, 1); v != nil || skip != "" {
		t.Errorf("exam-crowd: violation %v, skip %q; want a clean comparison", v, skip)
	}
}

// TestHybridAgreementSkips: the auto (hybrid) comparison of
// fidelity-agreement covers a planned storm day and skips threats and
// an empty plan with a stated reason.
func TestHybridAgreementSkips(t *testing.T) {
	for name, mutate := range map[string]func(*scenario.Config){
		"threats":    func(c *scenario.Config) { c.EnableThreats = true },
		"empty-plan": func(c *scenario.Config) { c.Storms = nil },
	} {
		if skip, err := autoScope(mutateStormy(mutate)); err != nil || skip == "" {
			t.Errorf("%s: auto comparison skip %q, error %v; want a skip reason", name, skip, err)
		}
	}
	if skip, err := autoScope(stormyBase); err != nil || skip != "" {
		t.Errorf("stormy base: auto comparison skip %q, error %v; want it compared", skip, err)
	}
	// The fluid stretches run the exam mix in force, so an exam storm
	// is compared, not skipped.
	if testing.Short() {
		return
	}
	exam := mutateStormy(func(c *scenario.Config) { c.Storms[0].ExamTraffic = true })
	if v, skip := checkFidelityAgreement(exam, 1); v != nil || skip != "" {
		t.Errorf("exam-storm: violation %v, skip %q; want a clean comparison", v, skip)
	}
}

// TestFidelityAgreementHolds: a storm case inside the covered regime
// tracks the whole-horizon DES at both fluid fidelities.
func TestFidelityAgreementHolds(t *testing.T) {
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
	if v, skip := checkFidelityAgreement(cfg, 0x5eed); skip != "" || v != nil {
		t.Errorf("fidelity-agreement: violation %v skip %q", v, skip)
	}
}

// TestCrossFidelitySpikeRegression pins the seeds the first fuzz
// sweeps found. While the fluid fleet sized each step from the rate
// alone, ignoring the scaler, storm 0x28f0f41a83af80e7 (a double storm
// and a join spike under the predictive scaler) read DES/fluid public
// VM-hours of 20.43, and campus 0xfb3abd4466c9728c (a hybrid with two
// exam crowds under the scheduled scaler) read 13.71. Run by the DES's
// own control loop, both read inside the bands. Chaos
// 0x743912ad8faad72c, a rural-DSL hybrid whose outages starve the DES
// of arrivals the fluid model serves (egress ratio 0.59), stays out of
// the volume clauses through the offline-share condition.
func TestCrossFidelitySpikeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	checkAgreementSeeds(t, []agreementSeed{
		{"storm", 0x28f0f41a83af80e7},
		{"campus", 0xfb3abd4466c9728c},
		{"chaos", 0x743912ad8faad72c},
	})
}

// TestHybridAgreementRetentionRegression pins the seeds the first
// hybrid-family sweep (run seed 1) minimized: small hybrid deployments
// whose fluid stretches gave the private side the base load and ran
// the public side at zero servers, while the DES's scaler held its
// floor for the whole horizon — auto/DES public VM-hours of 0.200 and
// 0.271. With one routing rule and one fleet model both read inside
// the bands.
func TestHybridAgreementRetentionRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	checkAgreementSeeds(t, []agreementSeed{
		{"hybrid", 0xc699da707374f890},
		{"hybrid", 0x57e3ea30f79965d6},
	})
}

type agreementSeed struct {
	family string
	seed   uint64
}

// checkAgreementSeeds runs fidelity-agreement on each generated case and,
// outside the chaos family, checks that the DES stays online enough for
// the VM-hours clauses those seeds broke to be compared at all.
func checkAgreementSeeds(t *testing.T, seeds []agreementSeed) {
	t.Helper()
	for _, c := range seeds {
		cs := FindFamilyOrDie(t, c.family).Case(c.seed)
		if v, skip := checkFidelityAgreement(cs.Cfg, cs.Seed); v != nil || skip != "" {
			t.Errorf("%s seed=%#x: violation %v, skip %q", c.family, c.seed, v, skip)
		}
		if c.family == "chaos" {
			continue
		}
		cfg := cs.Cfg
		cfg.Shards = 0
		des, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if share := offlineShare(des); share > 0.01 {
			t.Errorf("%s seed=%#x: offline share %.3f exempts the volume clauses", c.family, c.seed, share)
		}
	}
}

// TestPolicySanitySkips: policy-sanity covers storm-free public and
// hybrid days only, and says why it skips the rest.
func TestPolicySanitySkips(t *testing.T) {
	base := scenario.Config{Kind: deploy.Public, Students: 400, Duration: 2 * time.Hour}
	for name, mutate := range map[string]func(*scenario.Config){
		"private": func(c *scenario.Config) { c.Kind = deploy.Private },
		"desktop": func(c *scenario.Config) { c.Kind = deploy.Desktop },
		"too big": func(c *scenario.Config) { c.Duration = 24 * time.Hour },
		"storm": func(c *scenario.Config) {
			c.Storms = []workload.DeadlineStorm{{Deadline: time.Hour, Ramp: 30 * time.Minute, PeakMult: 4}}
		},
		"join": func(c *scenario.Config) {
			c.Joins = []workload.JoinStorm{{Start: time.Hour, Window: 10 * time.Minute, PeakMult: 4}}
		},
	} {
		cfg := base
		mutate(&cfg)
		if v, skip := checkPolicySanity(cfg, 1); v != nil || skip == "" {
			t.Errorf("%s: violation %v, skip %q; want a stated skip", name, v, skip)
		}
	}
}

// TestPolicySanityRegression pins the campus cases the first
// policy-sanity sweep (run seed 1) found: while the predictive scaler
// smoothed in-flight work, which admission control caps at 256 jobs
// per server, it swung between its floor and its cap. It rejected
// 31.1% of arrivals at 1.34x the oracle's VM-hours on the first case
// and 24.4% at 1.84x on the second. On the metered arrival rate both
// cases pass.
func TestPolicySanityRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	for _, seed := range []uint64{0xc6e55512914632ba, 0x5593667449a13d3f} {
		c := FindFamilyOrDie(t, "campus").Case(seed)
		v, skip := checkPolicySanity(c.Cfg, c.Seed)
		if skip != "" {
			t.Fatalf("campus seed=%#x: skipped (%s); the case must stay in scope", seed, skip)
		}
		if v != nil {
			t.Errorf("campus seed=%#x: %s", seed, v.Detail)
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
