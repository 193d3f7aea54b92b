package metamorph

import (
	"fmt"
	"math"
	"sort"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// Violation is one metamorphic property failure.
type Violation struct {
	// Invariant names the property that failed.
	Invariant string
	// Detail explains the failing relation with the observed numbers.
	Detail string
}

// CheckResult is one invariant's outcome on one case.
type CheckResult struct {
	// Name is the invariant's name.
	Name string
	// Skipped, when non-empty, says why the invariant did not apply to
	// this case (e.g. the config is too large for request-level runs).
	Skipped string
	// V is the violation, nil when the property held or was skipped.
	V *Violation
}

// Report is a full case verdict: the case plus each invariant's result.
type Report struct {
	Case
	Results []CheckResult
}

// Options tunes a CheckCase pass.
type Options struct {
	// Lite restricts the suite to the generator-level invariants (no
	// scenario.Run calls) — the budget the native fuzz target uses.
	Lite bool
	// Band additionally enables the cross-seed statistical invariants
	// (bandSeeds scenario runs per case) — the nightly chaos lane's
	// budget, far too heavy for the interactive default.
	Band bool
}

// Invariant is one metamorphic property. Check returns (violation,
// skipReason): a nil violation with an empty skip means the property
// held; a non-empty skip means it did not apply.
type Invariant struct {
	// Name identifies the property in reports and repro lines.
	Name string
	// Lite marks generator-level checks cheap enough for fuzzing.
	Lite bool
	// Band marks cross-seed statistical checks that run a whole seed
	// population per case; CheckCase skips them unless Options.Band.
	Band bool
	// Check evaluates the property on a generated config. caseSeed
	// roots any extra randomness the check itself needs, so the whole
	// verdict stays a pure function of (family, case seed).
	Check func(cfg scenario.Config, caseSeed uint64) (*Violation, string)
}

// Invariants returns the metamorphic property suite in a fixed order.
func Invariants() []Invariant {
	return []Invariant{
		{Name: "growth-monotone", Lite: true, Check: checkGrowthMonotone},
		{Name: "envelope-bound", Lite: true, Check: checkEnvelopeBound},
		{Name: "superpose-bound", Lite: true, Check: checkSuperposeBound},
		{Name: "parallel-determinism", Check: checkParallelDeterminism},
		{Name: "capacity-monotone", Check: checkCapacityMonotone},
		{Name: "cross-fidelity", Check: checkCrossFidelity},
		{Name: "shard-determinism", Check: checkShardDeterminism},
		{Name: "hybrid-determinism", Check: checkHybridDeterminism},
		{Name: "hybrid-agreement", Check: checkHybridAgreement},
		{Name: "advisor", Check: checkAdvisor},
		{Name: "seed-band", Band: true, Check: checkSeedBand},
	}
}

// FindInvariant returns the named invariant.
func FindInvariant(name string) (Invariant, error) {
	for _, inv := range Invariants() {
		if inv.Name == name {
			return inv, nil
		}
	}
	return Invariant{}, fmt.Errorf("metamorph: unknown invariant %q", name)
}

// CheckCase runs the invariant suite over one generated case.
func CheckCase(c Case, opt Options) Report {
	rep := Report{Case: c}
	for _, inv := range Invariants() {
		if opt.Lite && !inv.Lite {
			continue
		}
		if inv.Band && !opt.Band {
			continue
		}
		v, skip := inv.Check(c.Cfg, c.Seed)
		rep.Results = append(rep.Results, CheckResult{Name: inv.Name, Skipped: skip, V: v})
	}
	return rep
}

// workloadConfig projects the scenario's load shape into a standalone
// workload.Config, the same projection the runner makes internally.
func workloadConfig(cfg scenario.Config) workload.Config {
	students := cfg.Students
	if cfg.Growth != nil && students == 0 {
		students = int(math.Ceil(cfg.Growth.Max()))
	}
	req := cfg.ReqPerStudentHour
	if req == 0 {
		req = 50
	}
	return workload.Config{
		Students:          students,
		Growth:            cfg.Growth,
		ReqPerStudentHour: req,
		Diurnal:           cfg.Diurnal,
		Calendar:          cfg.Calendar,
		Crowds:            cfg.Crowds,
		Storms:            cfg.Storms,
		Joins:             cfg.Joins,
	}
}

// desFeasible bounds the configs the request-level invariants run:
// expected arrivals must fit an interactive fuzz budget.
func desFeasible(cfg scenario.Config) bool {
	if horizonOf(cfg) > 8*time.Hour {
		return false
	}
	pop := float64(cfg.Students)
	if cfg.Growth != nil {
		pop = cfg.Growth.Max()
	}
	req := cfg.ReqPerStudentHour
	if req == 0 {
		req = 50
	}
	return pop*req*horizonOf(cfg).Hours() <= 1.5e6
}

// --- generator-level (Lite) invariants --------------------------------

// checkGrowthMonotone: an enrollment curve never shrinks and never
// exceeds its own declared capacity — the monotonicity the piecewise
// envelope derivation depends on.
func checkGrowthMonotone(cfg scenario.Config, _ uint64) (*Violation, string) {
	if cfg.Growth == nil {
		return nil, "no growth curve"
	}
	h := horizonOf(cfg)
	max := cfg.Growth.Max()
	prev := cfg.Growth.At(0)
	for step := 0; step <= 400; step++ {
		t := h * time.Duration(step) / 400
		v := cfg.Growth.At(t)
		if v < prev-1e-9 {
			return &Violation{"growth-monotone",
				fmt.Sprintf("Growth.At(%v)=%.4f < At(prev)=%.4f", t, v, prev)}, ""
		}
		if v > max*(1+1e-9) {
			return &Violation{"growth-monotone",
				fmt.Sprintf("Growth.At(%v)=%.4f exceeds Max()=%.4f", t, v, max)}, ""
		}
		prev = v
	}
	return nil, ""
}

// checkEnvelopeBound: the instantaneous rate never exceeds the global
// MaxRate bound or the piecewise Envelope segment bound, and the
// thinning sampler never emits arrivals past the horizon. This is the
// contract that makes NHPP thinning statistically exact: a rate above
// its own envelope silently under-samples the peak.
func checkEnvelopeBound(cfg scenario.Config, caseSeed uint64) (*Violation, string) {
	gen, err := workload.NewGenerator(workloadConfig(cfg))
	if err != nil {
		return &Violation{"envelope-bound", "generator rejected config: " + err.Error()}, ""
	}
	h := horizonOf(cfg)
	maxRate := gen.MaxRate()

	// Grid pass: Rate ≤ MaxRate everywhere.
	for step := 0; step <= 600; step++ {
		t := h * time.Duration(step) / 600
		if r := gen.Rate(t); r > maxRate*(1+1e-9) {
			return &Violation{"envelope-bound",
				fmt.Sprintf("Rate(%v)=%.3f exceeds MaxRate()=%.3f", t, r, maxRate)}, ""
		}
	}

	// Segment walk: inside each envelope segment, the rate sampled at
	// several offsets must stay under that segment's bound.
	env := gen.Envelope()
	for t := time.Duration(0); t < h; {
		bound, until := env(t)
		if until <= t {
			return &Violation{"envelope-bound",
				fmt.Sprintf("envelope segment at %v does not advance (until=%v)", t, until)}, ""
		}
		if until > h {
			until = h
		}
		seg := until - t
		for _, frac := range []time.Duration{0, seg / 3, 2 * seg / 3, seg - 1} {
			if frac < 0 {
				continue
			}
			if r := gen.Rate(t + frac); r > bound*(1+1e-9) {
				return &Violation{"envelope-bound",
					fmt.Sprintf("Rate(%v)=%.3f exceeds envelope bound %.3f on [%v,%v)",
						t+frac, r, bound, t, until)}, ""
			}
		}
		t = until
	}

	// Sampling pass: generated arrivals are ordered, in-horizon, and
	// their count is plausible under the rate integral. Cap the horizon
	// so a full-scale MOOC case stays within the fuzz budget.
	sampleH := h
	if maxRate > 0 {
		if budget := time.Duration(2e5 / maxRate * float64(time.Second)); budget < sampleH {
			sampleH = budget
		}
	}
	rng := sim.NewRNG(sim.SeedFor(caseSeed, "metamorph/envelope"))
	var bad *Violation
	prevAt := time.Duration(-1)
	n := gen.Generate(rng, 0, sampleH, func(a workload.Arrival) {
		if bad != nil {
			return
		}
		if a.At < 0 || a.At >= sampleH {
			bad = &Violation{"envelope-bound",
				fmt.Sprintf("arrival at %v outside horizon [0,%v)", a.At, sampleH)}
		}
		if a.At < prevAt {
			bad = &Violation{"envelope-bound",
				fmt.Sprintf("arrival at %v precedes previous at %v", a.At, prevAt)}
		}
		prevAt = a.At
	})
	if bad != nil {
		return bad, ""
	}
	// The count is Poisson with mean ∫rate ≤ MaxRate·horizon, so allow
	// a 6-sigma one-sided tail (~1e-9) above the bound — a systematic
	// envelope breach overshoots far beyond that.
	mean := maxRate * sampleH.Seconds()
	if float64(n) > mean+6*math.Sqrt(mean)+10 {
		return &Violation{"envelope-bound",
			fmt.Sprintf("%d arrivals exceed the MaxRate·horizon bound %.1f beyond Poisson noise",
				n, mean)}, ""
	}
	return nil, ""
}

// checkSuperposeBound: a timezone superposition is a weighted mean, so
// at every instant it must lie within [min component, max component] of
// its waves' local values, and its peak can never exceed the largest
// component peak. Fresh random waves are drawn per case so the property
// is fuzzed beyond the configs the families happen to generate.
func checkSuperposeBound(_ scenario.Config, caseSeed uint64) (*Violation, string) {
	r := sim.NewRNG(sim.SeedFor(caseSeed, "metamorph/superpose"))
	waves := make([]workload.TimezoneWave, 2+r.Intn(3))
	for i := range waves {
		waves[i] = workload.TimezoneWave{
			Shift:  time.Duration(r.Intn(48)-24) * 30 * time.Minute,
			Weight: 0.25 + r.Float64(),
		}
	}
	blend := workload.SuperposeTimezones(waves)

	local := workload.CampusDiurnal()
	maxPeak := local.Peak()
	if p := blend.Peak(); p > maxPeak*(1+1e-9) {
		return &Violation{"superpose-bound",
			fmt.Sprintf("superposition peak %.4f exceeds max component peak %.4f", p, maxPeak)}, ""
	}
	for step := 0; step < 24*12; step++ {
		t := time.Duration(step) * 5 * time.Minute
		// The blend is tabulated at whole hours and interpolated, so
		// blend.At(t) is a convex combination of component values at
		// the two surrounding hour anchors — bound against exactly
		// those.
		tA := t.Truncate(time.Hour)
		tB := tA + time.Hour
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, w := range waves {
			for _, anchor := range []time.Duration{tA, tB} {
				v := local.At(anchor + w.Shift)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
		got := blend.At(t)
		if got < lo-1e-9 || got > hi+1e-9 {
			return &Violation{"superpose-bound",
				fmt.Sprintf("blend.At(%v)=%.4f outside component anchor range [%.4f,%.4f]", t, got, lo, hi)}, ""
		}
	}
	return nil, ""
}

// --- request-level invariants -----------------------------------------

// checkParallelDeterminism: the same config run directly, and run as a
// batch job on a 4-worker shared pool racing filler jobs, must produce
// byte-identical results — the repo's central determinism contract,
// here enforced on configs nobody hand-wrote.
func checkParallelDeterminism(cfg scenario.Config, caseSeed uint64) (*Violation, string) {
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	direct, err := scenario.Run(cfg)
	if err != nil {
		return &Violation{"parallel-determinism", "direct run failed: " + err.Error()}, ""
	}

	// Filler jobs create real pool contention so worker hand-offs and
	// completion-order effects would surface if any existed.
	filler := scenario.Config{
		Kind: deploy.Public, Students: 60, Duration: 30 * time.Minute,
		Diurnal: workload.FlatDiurnal(),
	}
	batch := scenario.NewBatch(sim.SeedFor(caseSeed, "metamorph/batch")).
		Add("case", cfg).
		Add("filler-a", filler).
		Add("filler-b", filler)
	res, err := batch.RunOn(scenario.NewPool(4))
	if err != nil {
		return &Violation{"parallel-determinism", "pooled run failed: " + err.Error()}, ""
	}
	got, want := Fingerprint(res.Result("case")), Fingerprint(direct)
	if got != want {
		return &Violation{"parallel-determinism",
			"pooled result differs from direct run:\n" + diffLine(want, got)}, ""
	}
	return nil, ""
}

// diffLine returns the first line where two fingerprints diverge.
func diffLine(a, b string) string {
	al, bl := splitLines(a), splitLines(b)
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("direct: %s\npooled: %s", al[i], bl[i])
		}
	}
	return fmt.Sprintf("fingerprint lengths differ: %d vs %d lines", len(al), len(bl))
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// checkCapacityMonotone: raising the elastic fleet cap from "tight"
// (a third of the peak-sized need) to "roomy" (four times it) must not
// make P95 latency meaningfully worse. More capacity never hurts. The
// comparison carries a small tolerance because the two runs consume
// their service/transfer streams in different completion orders, which
// legitimately moves the quantile by a few percent.
func checkCapacityMonotone(cfg scenario.Config, _ uint64) (*Violation, string) {
	if cfg.Kind != deploy.Public && cfg.Kind != deploy.Hybrid {
		return nil, "no elastic side to cap"
	}
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	gen, err := workload.NewGenerator(workloadConfig(cfg))
	if err != nil {
		return &Violation{"capacity-monotone", "generator rejected config: " + err.Error()}, ""
	}
	need := deploy.ServersForPeak(gen.MaxRate(), lms.TeachingMix().MeanService(lms.DefaultCatalog()))

	tight := cfg
	tight.MaxPublicServers = max(2, need/3)
	roomy := cfg
	roomy.MaxPublicServers = max(tight.MaxPublicServers+1, need*4)

	rTight, err := scenario.Run(tight)
	if err != nil {
		return &Violation{"capacity-monotone", "tight run failed: " + err.Error()}, ""
	}
	rRoomy, err := scenario.Run(roomy)
	if err != nil {
		return &Violation{"capacity-monotone", "roomy run failed: " + err.Error()}, ""
	}

	pTight, pRoomy := rTight.Latency.P95(), rRoomy.Latency.P95()
	if pRoomy > pTight*1.15+0.05 {
		return &Violation{"capacity-monotone",
			fmt.Sprintf("P95 rose from %.3fs (cap %d) to %.3fs (cap %d): more capacity made latency worse",
				pTight, tight.MaxPublicServers, pRoomy, roomy.MaxPublicServers)}, ""
	}
	// The roomy fleet must also never reject more than the tight one:
	// rejections are a pure function of saturation.
	if rRoomy.Rejected > rTight.Rejected {
		return &Violation{"capacity-monotone",
			fmt.Sprintf("rejections rose from %d (cap %d) to %d (cap %d)",
				rTight.Rejected, tight.MaxPublicServers, rRoomy.Rejected, roomy.MaxPublicServers)}, ""
	}
	return nil, ""
}

// checkCrossFidelity: on regimes both fidelities model — steady mixes,
// no outages, horizons long enough for the fluid 5-minute step — the
// request-level and flow-level runs must agree within tolerance on
// egress volume and compute consumption, and exactly on the capex-side
// facts (host count). The brackets mirror crossfidelity_test.go's
// hand-picked cases, so a fuzzed divergence means a real regime gap.
func checkCrossFidelity(cfg scenario.Config, _ uint64) (*Violation, string) {
	if cfg.Kind == deploy.Desktop {
		return nil, "desktop has no fleet to cross-check"
	}
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	if horizonOf(cfg) < 3*time.Hour {
		return nil, "horizon too short for the fluid integration step"
	}
	if cfg.HostFailureAt > 0 {
		return nil, "fluid model does not inject host failures"
	}
	for _, c := range cfg.Crowds {
		if c.ExamTraffic {
			return nil, "fluid model holds the teaching mix through exam windows"
		}
	}
	for _, s := range cfg.Storms {
		if s.ExamTraffic {
			return nil, "fluid model holds the teaching mix through exam windows"
		}
	}
	for _, j := range cfg.Joins {
		if j.ExamTraffic {
			return nil, "fluid model holds the teaching mix through exam windows"
		}
	}

	des, err := scenario.Run(cfg)
	if err != nil {
		return &Violation{"cross-fidelity", "request-level run failed: " + err.Error()}, ""
	}
	fluid, err := scenario.FluidRun(cfg)
	if err != nil {
		return &Violation{"cross-fidelity", "fluid run failed: " + err.Error()}, ""
	}

	if des.PrivateHosts != fluid.PrivateHosts {
		return &Violation{"cross-fidelity",
			fmt.Sprintf("private hosts differ: DES %d vs fluid %d", des.PrivateHosts, fluid.PrivateHosts)}, ""
	}
	if math.Abs(des.Cost.Capex-fluid.Cost.Capex) > 1e-6 {
		return &Violation{"cross-fidelity",
			fmt.Sprintf("capex differs: DES %.4f vs fluid %.4f", des.Cost.Capex, fluid.Cost.Capex)}, ""
	}
	// With the CDN on, the fluid model prices misses at the steady-state
	// analytic Zipf hit ratio while the request-level LRU starts cold —
	// on short horizons the realized hit ratio sits below steady state
	// and DES egress legitimately runs high (seed 0xe7d7a42389866a63
	// minimizes to a 56-student hybrid+CDN case at ratio 1.34), so the
	// egress-volume clause only applies to CDN-off configs. It also
	// needs the last mile up: the fluid model has no network-failure
	// process, while the request-level runner counts every arrival
	// during an access outage as Offline and serves it zero bytes —
	// on a flaky link the DES legitimately delivers less (seed
	// 0x743912ad8faad72c minimizes to a 54-student rural-DSL hybrid at
	// ratio 0.65), so the clause only applies when the offline share of
	// arrivals is negligible.
	offlineShare := 0.0
	if total := float64(des.Served + des.Offline); total > 0 {
		offlineShare = float64(des.Offline) / total
	}
	if !cfg.EnableCDN && fluid.EgressGB > 0.02 && offlineShare <= 0.01 {
		ratio := des.EgressGB / fluid.EgressGB
		if ratio < 0.75 || ratio > 1.30 {
			return &Violation{"cross-fidelity",
				fmt.Sprintf("egress ratio DES/fluid = %.3f (DES %.3f GB, fluid %.3f GB) outside [0.75,1.30]",
					ratio, des.EgressGB, fluid.EgressGB)}, ""
		}
	}
	// The VM-hours clause needs a spikiness gate: the fluid fleet is
	// memoryless (it sheds servers the instant the 5-minute-step rate
	// drops) while the request-level reactive scaler holds capacity
	// through and after a spike, so on stacked storm peaks the DES/fluid
	// ratio grows without bound — seed 0x28f0f41a83af80e7 (storm)
	// minimizes to a 215-student double-storm ratio of 20x, and seeds
	// 0xd0ada100cde3ab03, 0xfb3abd4466c9728c show the same shape. The
	// clause therefore only applies when peak rate is within 6x of the
	// mean, where scale-down lag amortizes — and when the fluid public
	// fleet is at least 5 VM-hours, because below that the DES's
	// whole-server quantization dominates (a hybrid whose private side
	// absorbs the base load runs its public side as pure spike: seed
	// 0xfb3abd4466c9728c has fluid 0.58 VM-hours vs DES 8).
	// The same outage caveat applies: a dead last mile starves the
	// reactive scaler of load the fluid model still integrates.
	if gen, err := workload.NewGenerator(workloadConfig(cfg)); err == nil &&
		(cfg.Kind == deploy.Public || cfg.Kind == deploy.Hybrid) &&
		cfg.Scaler != scenario.ScalerFixed && fluid.VMHoursPublic > 5 &&
		offlineShare <= 0.01 &&
		gen.MaxRate() <= 6*meanRate(gen, horizonOf(cfg)) {
		ratio := des.VMHoursPublic / fluid.VMHoursPublic
		if ratio < 0.95 || ratio > 8 {
			return &Violation{"cross-fidelity",
				fmt.Sprintf("public VM-hours ratio DES/fluid = %.3f (DES %.2f, fluid %.2f) outside [0.95,8]",
					ratio, des.VMHoursPublic, fluid.VMHoursPublic)}, ""
		}
	}
	return nil, ""
}

// checkShardDeterminism: the sharded execution path must preserve both
// the determinism contract and the physics. For single-shard configs,
// ShardedRun is byte-identical to the direct run — the full sharding
// machinery executes with every share multiplier exactly 1.0. For
// multi-shard configs, the merged result is a pure function of
// (config, seed, K): byte-identical whatever the pool width; and the
// documented fleet-split approximation must stay within tolerance of
// the unsharded engine on delivered volume and tail latency.
func checkShardDeterminism(cfg scenario.Config, _ uint64) (*Violation, string) {
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	if cfg.Shards < 2 {
		one := cfg
		one.Shards = 1
		direct, err := scenario.Run(cfg)
		if err != nil {
			return &Violation{"shard-determinism", "direct run failed: " + err.Error()}, ""
		}
		sharded, err := scenario.ShardedRun(one, scenario.NewPool(2))
		if err != nil {
			return &Violation{"shard-determinism", "single-shard run failed: " + err.Error()}, ""
		}
		if got, want := Fingerprint(sharded), Fingerprint(direct); got != want {
			return &Violation{"shard-determinism",
				"single-shard result differs from direct run:\n" + diffLine(want, got)}, ""
		}
		return nil, ""
	}

	serial, err := scenario.ShardedRun(cfg, scenario.NewPool(1))
	if err != nil {
		return &Violation{"shard-determinism", "sharded run failed: " + err.Error()}, ""
	}
	pooled, err := scenario.ShardedRun(cfg, scenario.NewPool(4))
	if err != nil {
		return &Violation{"shard-determinism", "pooled sharded run failed: " + err.Error()}, ""
	}
	if got, want := Fingerprint(pooled), Fingerprint(serial); got != want {
		return &Violation{"shard-determinism",
			fmt.Sprintf("shards=%d merged result depends on worker count:\n%s",
				cfg.Shards, diffLine(want, got))}, ""
	}

	// Physics clause: compare against the unsharded engine. Outage and
	// threat scenarios are exempt — their singleton processes run on
	// shard 0 only (the scenario models one institution), so their blast
	// radius is deliberately 1/K of the unsharded run's.
	if cfg.HostFailureAt > 0 || cfg.EnableThreats {
		return nil, ""
	}
	un := cfg
	un.Shards = 0
	direct, err := scenario.Run(un)
	if err != nil {
		return &Violation{"shard-determinism", "unsharded run failed: " + err.Error()}, ""
	}
	// Poisson splitting makes the superposed arrival process identical
	// in distribution, so delivered volume must land close; the split
	// fleet's Erlang penalty (and its per-shard scale-up floors) may
	// legitimately move the tail, so P95 gets a generous one-sided band —
	// table10 measures ~3x drift at 10^5 students on saturated reactive
	// fleets.
	dServed, sServed := float64(direct.Served), float64(serial.Served)
	if dServed > 0 && (sServed < 0.6*dServed || sServed > 1.4*dServed) {
		return &Violation{"shard-determinism",
			fmt.Sprintf("shards=%d served %d vs unsharded %d: outside [0.6,1.4]x",
				cfg.Shards, serial.Served, direct.Served)}, ""
	}
	if p, q := serial.Latency.P95(), direct.Latency.P95(); p > q*6+0.5 {
		return &Violation{"shard-determinism",
			fmt.Sprintf("shards=%d P95 %.3fs vs unsharded %.3fs: split-fleet drift beyond 6x+0.5s",
				cfg.Shards, p, q)}, ""
	}
	return nil, ""
}

// --- hybrid-fidelity invariants ---------------------------------------

// checkHybridDeterminism: HybridRun's stitched result is a pure
// function of (config, seed, plan) — byte-identical whatever the pool
// width, for any generated config, windows sharded or not. This is the
// hybrid analogue of shard-determinism's worker-independence clause;
// the empty-plan == FluidRun identity and the per-window conservation
// law are pinned by internal/scenario's property tests.
func checkHybridDeterminism(cfg scenario.Config, _ uint64) (*Violation, string) {
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	serial, err := scenario.HybridRun(cfg, scenario.NewPool(1))
	if err != nil {
		return &Violation{"hybrid-determinism", "serial hybrid run failed: " + err.Error()}, ""
	}
	pooled, err := scenario.HybridRun(cfg, scenario.NewPool(4))
	if err != nil {
		return &Violation{"hybrid-determinism", "pooled hybrid run failed: " + err.Error()}, ""
	}
	if got, want := Fingerprint(pooled), Fingerprint(serial); got != want {
		return &Violation{"hybrid-determinism",
			"hybrid result depends on worker count:\n" + diffLine(want, got)}, ""
	}
	return nil, ""
}

// checkHybridAgreement: on regimes where the fidelity seams are the
// only approximation — no outages, no threat model, no exam mix shifts
// in fluid time — HybridRun must track the whole-horizon request-level
// run within documented bands: exactly on the capex-side facts, within
// tolerance on served mass, egress and public compute. Shards are
// zeroed on both sides so the comparison isolates the seam error from
// the sharded engine's separately-bounded split-fleet drift
// (shard-determinism owns that band).
func checkHybridAgreement(cfg scenario.Config, _ uint64) (*Violation, string) {
	if cfg.Kind == deploy.Desktop {
		return nil, "desktop has no fleet to cross-check"
	}
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	if horizonOf(cfg) < 3*time.Hour {
		return nil, "horizon too short for the fluid integration step"
	}
	if cfg.HostFailureAt > 0 {
		return nil, "a host failure's blast radius would span fidelity seams"
	}
	if cfg.EnableThreats {
		return nil, "the threat model is whole-horizon in DES but window-local in hybrid"
	}
	for _, c := range cfg.Crowds {
		if c.ExamTraffic {
			return nil, "fluid stretches hold the teaching mix through exam windows"
		}
	}
	for _, s := range cfg.Storms {
		if s.ExamTraffic {
			return nil, "fluid stretches hold the teaching mix through exam windows"
		}
	}
	for _, j := range cfg.Joins {
		if j.ExamTraffic {
			return nil, "fluid stretches hold the teaching mix through exam windows"
		}
	}

	un := cfg
	un.Shards = 0
	plan, err := scenario.PlanFidelity(un)
	if err != nil {
		return &Violation{"hybrid-agreement", "planner failed: " + err.Error()}, ""
	}
	if len(plan.Windows) == 0 {
		return nil, "planner opened no DES windows (cross-fidelity owns the all-fluid regime)"
	}

	des, err := scenario.Run(un)
	if err != nil {
		return &Violation{"hybrid-agreement", "request-level run failed: " + err.Error()}, ""
	}
	hyb, err := scenario.HybridRun(un, scenario.NewPool(2))
	if err != nil {
		return &Violation{"hybrid-agreement", "hybrid run failed: " + err.Error()}, ""
	}

	// Capex-side facts are seed-free deterministic functions of the
	// config, so they must agree exactly.
	if hyb.PrivateHosts != des.PrivateHosts {
		return &Violation{"hybrid-agreement",
			fmt.Sprintf("private hosts differ: hybrid %d vs DES %d", hyb.PrivateHosts, des.PrivateHosts)}, ""
	}
	if math.Abs(hyb.Cost.Capex-des.Cost.Capex) > 1e-6 {
		return &Violation{"hybrid-agreement",
			fmt.Sprintf("capex differs: hybrid %.4f vs DES %.4f", hyb.Cost.Capex, des.Cost.Capex)}, ""
	}

	// The fluid stretches assume the last mile is up, so the volume
	// clauses need the DES's offline share negligible — same caveat as
	// cross-fidelity (seed 0x743912ad8faad72c's rural-DSL lineage).
	offlineShare := 0.0
	if total := float64(des.Served + des.Offline); total > 0 {
		offlineShare = float64(des.Offline) / total
	}
	if offlineShare <= 0.01 && des.Served > 0 {
		// Served mass: the seams lose at most the bootGrace gaps and the
		// backlog/carry approximations, and the fluid stretches assume all
		// offered load completes where the DES rejects at saturation.
		ratio := float64(hyb.Served) / float64(des.Served)
		if ratio < 0.85 || ratio > 1.15 {
			return &Violation{"hybrid-agreement",
				fmt.Sprintf("served ratio hybrid/DES = %.3f (hybrid %d, DES %d) outside [0.85,1.15]",
					ratio, hyb.Served, des.Served)}, ""
		}
	}
	if !cfg.EnableCDN && des.EgressGB > 0.02 && offlineShare <= 0.01 {
		ratio := hyb.EgressGB / des.EgressGB
		if ratio < 0.80 || ratio > 1.25 {
			return &Violation{"hybrid-agreement",
				fmt.Sprintf("egress ratio hybrid/DES = %.3f (hybrid %.3f GB, DES %.3f GB) outside [0.80,1.25]",
					ratio, hyb.EgressGB, des.EgressGB)}, ""
		}
	}
	// Public compute: the hybrid's fluid stretches shed servers
	// memorylessly where the DES's scaler holds capacity after a burst,
	// so the hybrid legitimately runs lean — but the DES windows cover
	// the storms themselves, so the gap is bounded by the quiet-time
	// retention, not the spike (no spikiness gate needed, unlike
	// cross-fidelity's unbounded storm ratios). Both sides must clear 5
	// VM-hours: when the hybrid's public compute is almost all window
	// time (a hybrid deployment whose private side absorbs the base
	// load), whole-server quantization and the scaler's held floor
	// dominate the ratio — seeds 0xc699da707374f890 (96-student hybrid,
	// ratio 0.20) and 0x57e3ea30f79965d6 (ratio 0.27) minimize to
	// exactly that shape, the hybrid analogue of cross-fidelity's seed
	// 0xfb3abd4466c9728c.
	if (cfg.Kind == deploy.Public || cfg.Kind == deploy.Hybrid) &&
		cfg.Scaler != scenario.ScalerFixed &&
		des.VMHoursPublic > 5 && hyb.VMHoursPublic > 5 &&
		offlineShare <= 0.01 {
		ratio := hyb.VMHoursPublic / des.VMHoursPublic
		if ratio < 0.30 || ratio > 1.50 {
			return &Violation{"hybrid-agreement",
				fmt.Sprintf("public VM-hours ratio hybrid/DES = %.3f (hybrid %.2f, DES %.2f) outside [0.30,1.50]",
					ratio, hyb.VMHoursPublic, des.VMHoursPublic)}, ""
		}
	}
	return nil, ""
}

// --- cross-seed statistical invariants --------------------------------

// bandSeeds is the seed-population size of the cross-seed statistical
// invariant: large enough that a physics regression shows up as an
// outlier against a stable median, small enough for a nightly lane.
const bandSeeds = 50

// Band tolerances: the served fraction is an absolute band around the
// population median (admission is a ratio of large Poisson counts, so
// honest seed noise is small); P95 latency gets a multiplicative band
// with an absolute floor, because quantiles near saturation swing with
// which seed's storm peak lands on a scale-up boundary.
const (
	bandFracTol  = 0.08
	bandP95Mult  = 4.0
	bandP95Slack = 0.25
)

// Stable-regime gates: the band tolerances describe seed concentration
// of *healthy* service, so populations sitting in a threshold regime —
// where a seed either tips over an edge or doesn't — are exempt rather
// than forced into a band wide enough to catch nothing. Each gate is a
// regime the first -band sweeps actually found (see bandRegime).
const (
	bandOfflineMax = 0.01
	bandStableFrac = 0.95
	bandStableP95  = 1.0
)

// Resource bands: VM-hours and egress joined the banded metrics so a
// seed-chaotic scaler or transfer path shows up even when service
// stays healthy. Both are relative bands around the population median
// with an absolute slack, and each has a floor below which the metric
// is dominated by quantization rather than physics: a fleet under
// bandVMFloor VM-hours moves in whole-server steps that are a large
// fraction of the total (scale-up timing shifts one server for a few
// minutes and the ratio swings), and egress under bandEgressFloor GB is
// a handful of Pareto-tailed video objects whose sizes honestly swing
// across seeds. The tolerances are data-driven from the widening
// sweeps (run seeds 1 and 3): across every population the service
// gates admit, VM-hours deviation from the median peaked at 0.118
// (a mooc reactive fleet) and egress at 0.171 (storm seed
// 0xc64b3058f820bb6b, the widest in-band population — pinned passing
// in TestSeedBandRegimeGates), so each band sits at roughly twice the
// worst honest dispersion observed. The big egress swings the sweeps
// found (0.57 at storm seed 0x80f7a36ce9c50d64, 0.30 at
// 0x922cac3419b47d77) all rode last-mile outages — zero-byte Offline
// arrivals gut the transfer volume — and the existing offline-share
// regime gate already exempts exactly those populations.
const (
	bandVMFloor     = 2.0
	bandVMTol       = 0.25
	bandVMSlack     = 0.25
	bandEgressFloor = 0.05
	bandEgressTol   = 0.30
	bandEgressSlack = 0.02
)

// bandFeasible bounds the configs the cross-seed invariant runs: it
// executes bandSeeds full request-level runs (twice when the hybrid
// path applies), so the per-run budget sits an order of magnitude
// below desFeasible's.
func bandFeasible(cfg scenario.Config) bool {
	if horizonOf(cfg) > 4*time.Hour {
		return false
	}
	pop := float64(cfg.Students)
	if cfg.Growth != nil {
		pop = cfg.Growth.Max()
	}
	req := cfg.ReqPerStudentHour
	if req == 0 {
		req = 50
	}
	return pop*req*horizonOf(cfg).Hours() <= 1.2e5
}

// checkSeedBand: the physics must be statistically stable in the seed.
// Across bandSeeds independent seeds of the same config, the served
// fraction of arrivals stays inside an absolute band around the
// population median, P95 latency inside a multiplicative band, and the
// resource metrics — total VM-hours and egress volume — inside relative
// bands (bandResourceViolation) — for the pure-DES path, and for the
// hybrid path when the planner opens windows. A single excursion means
// seed-chaotic physics (a rare-branch bug), which golden tests at one
// pinned seed can never see.
func checkSeedBand(cfg scenario.Config, caseSeed uint64) (*Violation, string) {
	if !bandFeasible(cfg) {
		return nil, "config above the cross-seed statistical budget"
	}

	fracs := make([]float64, 0, bandSeeds)
	p95s := make([]float64, 0, bandSeeds)
	vmhs := make([]float64, 0, bandSeeds)
	egs := make([]float64, 0, bandSeeds)
	maxOffline := 0.0
	for i := 0; i < bandSeeds; i++ {
		sub := cfg
		sub.Seed = sim.SeedFor(caseSeed, fmt.Sprintf("metamorph/band/%d", i))
		r, err := scenario.Run(sub)
		if err != nil {
			return &Violation{"seed-band", fmt.Sprintf("des run at band seed %d failed: %v", i, err)}, ""
		}
		total := r.Served + r.Rejected + r.Offline
		if total == 0 {
			return nil, "no arrivals to measure"
		}
		fracs = append(fracs, float64(r.Served)/float64(total))
		p95s = append(p95s, r.Latency.P95())
		vmhs = append(vmhs, r.VMHoursPublic+r.VMHoursPrivate)
		egs = append(egs, r.EgressGB)
		maxOffline = math.Max(maxOffline, float64(r.Offline)/float64(total))
	}
	if reason := bandRegime("des", fracs, p95s, maxOffline); reason != "" {
		return nil, reason
	}
	if v := bandViolation("des", fracs, p95s); v != nil {
		return v, ""
	}
	if v := bandResourceViolation("des", vmhs, egs); v != nil {
		return v, ""
	}

	// Hybrid path: same statistic through HybridRun, when the planner
	// opens windows (an empty plan is the FluidRun identity — nothing
	// request-level left to band).
	if cfg.Kind == deploy.Desktop {
		return nil, ""
	}
	plan, err := scenario.PlanFidelity(cfg)
	if err != nil || len(plan.Windows) == 0 {
		return nil, ""
	}
	pool := scenario.NewPool(2)
	fracs, p95s = fracs[:0], p95s[:0]
	vmhs, egs = vmhs[:0], egs[:0]
	maxOffline = 0
	for i := 0; i < bandSeeds; i++ {
		sub := cfg
		sub.Seed = sim.SeedFor(caseSeed, fmt.Sprintf("metamorph/band/%d", i))
		r, err := scenario.HybridRun(sub, pool)
		if err != nil {
			return &Violation{"seed-band", fmt.Sprintf("hybrid run at band seed %d failed: %v", i, err)}, ""
		}
		total := r.Served + r.Rejected + r.Offline
		if total == 0 {
			return nil, "no arrivals to measure"
		}
		fracs = append(fracs, float64(r.Served)/float64(total))
		p95s = append(p95s, r.Latency.P95())
		vmhs = append(vmhs, r.VMHoursPublic+r.VMHoursPrivate)
		egs = append(egs, r.EgressGB)
		maxOffline = math.Max(maxOffline, float64(r.Offline)/float64(total))
	}
	if reason := bandRegime("hybrid", fracs, p95s, maxOffline); reason != "" {
		return nil, reason
	}
	if v := bandViolation("hybrid", fracs, p95s); v != nil {
		return v, ""
	}
	if v := bandResourceViolation("hybrid", vmhs, egs); v != nil {
		return v, ""
	}
	return nil, ""
}

// bandResourceViolation checks the resource metrics' seed populations:
// total VM-hours and egress volume each stay inside a relative band
// around the population median, gated by the quantization floors
// (bandVMFloor, bandEgressFloor) documented with the constants.
func bandResourceViolation(path string, vmhs, egs []float64) *Violation {
	if vm := median(vmhs); vm >= bandVMFloor {
		for i, v := range vmhs {
			if math.Abs(v-vm) > bandVMTol*vm+bandVMSlack {
				return &Violation{"seed-band",
					fmt.Sprintf("%s path: VM-hours %.2f at band seed %d strays from the %d-seed median %.2f beyond ±(%.0f%%+%.2fh)",
						path, v, i, len(vmhs), vm, bandVMTol*100, bandVMSlack)}
			}
		}
	}
	if em := median(egs); em >= bandEgressFloor {
		for i, e := range egs {
			if math.Abs(e-em) > bandEgressTol*em+bandEgressSlack {
				return &Violation{"seed-band",
					fmt.Sprintf("%s path: egress %.3f GB at band seed %d strays from the %d-seed median %.3f GB beyond ±(%.0f%%+%.2fGB)",
						path, e, i, len(egs), em, bandEgressTol*100, bandEgressSlack)}
			}
		}
	}
	return nil
}

// bandRegime reports why a seed population sits outside the stable
// service regime the band tolerances describe, or "" when the bands
// apply. Three regimes are exempt, each discovered by the first -band
// sweeps and each a legitimate threshold effect rather than a physics
// bug. Last-mile outages: an access outage either lands inside a
// seed's horizon or it doesn't, so served mass is bimodal across seeds
// — chaos seed 0x7a4bb6d0a24761f2 minimizes to a 63-student rural-DSL
// case where one seed in fifty catches an outage and serves 0.82 of
// arrivals against a median of 1.0 (chaos seed 0xd1aa00f4044537ab is
// the same shape deeper in). Saturation rejection: how far a reactive
// fleet collapses under a 10x exam storm is a knife-edge in the
// arrival stream, so rejection depth disperses — storm seed
// 0x70606318406a2908 runs at median served 0.84 with an excursion to
// 0.74. Queueing collapse of the tail: once the median P95 sits in
// whole seconds the quantile measures queue depth at the storm peak,
// which swings an order of magnitude with whether a given seed's peak
// tips the scaler — storm seeds 0xe381ddf4f0539593 and
// 0x14c14eb477a93de7 run at median P95 2.1s and 5.4s while their
// unsaturated seeds sit at 0.4–0.5s. The discovered seeds are pinned
// in TestSeedBandRegimeGates.
func bandRegime(path string, fracs, p95s []float64, maxOffline float64) string {
	if maxOffline > bandOfflineMax {
		return fmt.Sprintf("%s path: offline share up to %.3f across band seeds — outage bimodality, not seed noise", path, maxOffline)
	}
	if fm := median(fracs); fm < bandStableFrac {
		return fmt.Sprintf("%s path: median served fraction %.3f — saturation depth is a threshold effect", path, fm)
	}
	if pm := median(p95s); pm > bandStableP95 {
		return fmt.Sprintf("%s path: median P95 %.2fs — tail in queueing collapse", path, pm)
	}
	return ""
}

// bandViolation checks one path's seed population against the band
// tolerances, naming the first offending seed index.
func bandViolation(path string, fracs, p95s []float64) *Violation {
	fm := median(fracs)
	for i, f := range fracs {
		if math.Abs(f-fm) > bandFracTol {
			return &Violation{"seed-band",
				fmt.Sprintf("%s path: served fraction %.4f at band seed %d strays %.4f from the %d-seed median %.4f (tol %.2f)",
					path, f, i, math.Abs(f-fm), len(fracs), fm, bandFracTol)}
		}
	}
	pm := median(p95s)
	for i, p := range p95s {
		if p > pm*bandP95Mult+bandP95Slack || pm > p*bandP95Mult+bandP95Slack {
			return &Violation{"seed-band",
				fmt.Sprintf("%s path: P95 %.3fs at band seed %d outside the %d-seed median %.3fs band [/%g,x%g]+%.2fs",
					path, p, i, len(p95s), pm, bandP95Mult, bandP95Mult, bandP95Slack)}
		}
	}
	return nil
}

// median returns the population median (mean of the middle pair for
// even sizes). The input is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// meanRate samples the generator's average arrival rate over a horizon.
func meanRate(gen *workload.Generator, h time.Duration) float64 {
	const steps = 200
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += gen.Rate(h * time.Duration(i) / steps)
	}
	return sum / steps
}
