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
		{Name: "determinism", Check: checkDeterminism},
		{Name: "capacity-monotone", Check: checkCapacityMonotone},
		{Name: "fidelity-agreement", Check: checkFidelityAgreement},
		{Name: "advisor", Check: checkAdvisor},
		{Name: "policy-sanity", Check: checkPolicySanity},
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
	return horizonOf(cfg) <= 8*time.Hour && offeredBound(cfg) <= 1.5e6
}

// offeredBound bounds cfg's offered requests: its largest population
// at its per-student rate over the whole horizon.
func offeredBound(cfg scenario.Config) float64 {
	pop := float64(cfg.Students)
	if cfg.Growth != nil {
		pop = cfg.Growth.Max()
	}
	req := cfg.ReqPerStudentHour
	if req == 0 {
		req = 50
	}
	return pop * req * horizonOf(cfg).Hours()
}

// atFidelity returns cfg set to run at fidelity f.
func atFidelity(cfg scenario.Config, f scenario.Fidelity) scenario.Config {
	cfg.Fidelity = f
	return cfg
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

// checkDeterminism: a run is a pure function of its config and seed —
// the repo's central determinism contract, here enforced on configs
// nobody hand-wrote. The case runs at FidelityDES and at FidelityAuto,
// each at its own Shards, on a one-worker pool: the references. Both
// configs run again as jobs of one batch on a 4-worker pool, racing
// two filler jobs for its tokens, so worker hand-offs and
// completion-order effects would surface if any existed; every pooled
// fingerprint must match its reference. The same batch runs the
// sharding companion: an unsharded case at one shard, which must equal
// the direct run, and a sharded case unsharded, the reference for
// shardPhysics.
func checkDeterminism(cfg scenario.Config, caseSeed uint64) (*Violation, string) {
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	des, auto := atFidelity(cfg, scenario.FidelityDES), atFidelity(cfg, scenario.FidelityAuto)
	companion := des
	companion.Shards = 0
	if cfg.Shards == 0 {
		companion.Shards = 1
	}
	serial := scenario.NewPool(1)
	refDES, err := serial.Run(des)
	if err != nil {
		return &Violation{"determinism", "serial DES run failed: " + err.Error()}, ""
	}
	refAuto, err := serial.Run(auto)
	if err != nil {
		return &Violation{"determinism", "serial auto run failed: " + err.Error()}, ""
	}

	filler := scenario.Config{
		Kind: deploy.Public, Students: 60, Duration: 30 * time.Minute,
		Diurnal: workload.FlatDiurnal(),
	}
	batch := scenario.NewBatch(sim.SeedFor(caseSeed, "metamorph/batch")).
		Add("des", des).
		Add("auto", auto).
		Add("companion", companion).
		Add("filler-a", filler).
		Add("filler-b", filler)
	res, err := batch.RunOn(scenario.NewPool(4))
	if err != nil {
		return &Violation{"determinism", "pooled batch failed: " + err.Error()}, ""
	}
	for _, r := range []struct {
		job string
		ref *scenario.Result
	}{{"des", refDES}, {"auto", refAuto}} {
		if got, want := Fingerprint(res.Result(r.job)), Fingerprint(r.ref); got != want {
			return &Violation{"determinism",
				fmt.Sprintf("shards=%d %s result depends on the pool:\n%s", cfg.Shards, r.job, diffLine(want, got))}, ""
		}
	}
	if cfg.Shards < 2 {
		if got, want := Fingerprint(res.Result("companion")), Fingerprint(refDES); got != want {
			return &Violation{"determinism",
				fmt.Sprintf("shards=%d result differs from shards=%d:\n%s", companion.Shards, cfg.Shards, diffLine(want, got))}, ""
		}
		return nil, ""
	}
	return shardPhysics(cfg, refDES, res.Result("companion")), ""
}

// shardPhysics checks a sharded DES result against the unsharded run
// of the same config. The shards share the unsharded engine's access
// line, so its disconnects, availability and lost work come out
// exactly; the documented fleet-split approximation must stay within
// tolerance on delivered volume and tail latency. Outage and threat
// scenarios are exempt — their singleton processes run on shard 0 only
// (the scenario models one institution), so their blast radius is
// deliberately 1/K of the unsharded run's.
func shardPhysics(cfg scenario.Config, sharded, direct *scenario.Result) *Violation {
	if cfg.HostFailureAt > 0 || cfg.EnableThreats {
		return nil
	}
	// One institution has one access line: its outages, and the work
	// they destroy across the tracked sessions, do not depend on K.
	if sharded.Disconnects != direct.Disconnects || sharded.NetAvailability != direct.NetAvailability ||
		sharded.LostWork != direct.LostWork {
		return &Violation{"determinism",
			fmt.Sprintf("shards=%d access line: %d disconnects, availability %v, lost work %v; unsharded %d, %v, %v",
				cfg.Shards, sharded.Disconnects, sharded.NetAvailability, sharded.LostWork,
				direct.Disconnects, direct.NetAvailability, direct.LostWork)}
	}
	// Poisson splitting makes the superposed arrival process identical
	// in distribution, so delivered volume must land close; the split
	// fleet's Erlang penalty (and its per-shard scale-up floors) may
	// legitimately move the tail, so P95 gets a generous one-sided band —
	// table10 measures ~3x drift at 10^5 students on saturated reactive
	// fleets.
	dServed, sServed := float64(direct.Served), float64(sharded.Served)
	if dServed > 0 && (sServed < 0.6*dServed || sServed > 1.4*dServed) {
		return &Violation{"determinism",
			fmt.Sprintf("shards=%d served %d vs unsharded %d: outside [0.6,1.4]x",
				cfg.Shards, sharded.Served, direct.Served)}
	}
	if p, q := sharded.Latency.P95(), direct.Latency.P95(); p > q*6+0.5 {
		return &Violation{"determinism",
			fmt.Sprintf("shards=%d P95 %.3fs vs unsharded %.3fs: split-fleet drift beyond 6x+0.5s",
				cfg.Shards, p, q)}
	}
	return nil
}

// diffLine returns the first line where two fingerprints diverge.
func diffLine(a, b string) string {
	al, bl := splitLines(a), splitLines(b)
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("serial: %s\npooled: %s", al[i], bl[i])
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
// legitimately moves the quantile by a few percent. Both runs use the
// one direct engine.
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

	cfg.Shards = 0
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

// checkFidelityAgreement: the three fidelities share one fleet model
// (the same autoscaler drives every fleet, through the same bounds,
// routing and mix rule), so the fluid run, and the auto run where the
// planner opens windows, must track the unsharded request-level run,
// which runs once as the reference for both: exactly on the capex-side
// facts (host count), within tolerance on egress and public compute,
// and for the auto run on served mass too. What the fluid model leaves
// out stays out (agreementScope, autoScope): host failures, last-mile
// outages, the CDN's cold start, horizons under 3h, where saturation
// the fluid model does not reject dominates (storm seed
// 0xfd07a95cec2c0c7a, 2h: 47% rejected, egress ratio 0.74), and, for
// the auto run alone, the threat model.
func checkFidelityAgreement(cfg scenario.Config, _ uint64) (*Violation, string) {
	if skip := agreementScope(cfg); skip != "" {
		return nil, skip
	}
	cfg.Shards = 0
	autoSkip, err := autoScope(cfg)
	if err != nil {
		return &Violation{"fidelity-agreement", "planner failed: " + err.Error()}, ""
	}
	des, err := scenario.Run(atFidelity(cfg, scenario.FidelityDES))
	if err != nil {
		return &Violation{"fidelity-agreement", "request-level run failed: " + err.Error()}, ""
	}
	fluid, err := scenario.Run(atFidelity(cfg, scenario.FidelityFluid))
	if err != nil {
		return &Violation{"fidelity-agreement", "fluid run failed: " + err.Error()}, ""
	}
	var auto *scenario.Result
	if autoSkip == "" {
		if auto, err = scenario.NewPool(2).Run(atFidelity(cfg, scenario.FidelityAuto)); err != nil {
			return &Violation{"fidelity-agreement", "auto run failed: " + err.Error()}, ""
		}
	}

	// Capex-side facts are seed-free deterministic functions of the
	// config, so they must agree exactly.
	for _, r := range []struct {
		name string
		res  *scenario.Result
	}{{"fluid", fluid}, {"auto", auto}} {
		if r.res == nil {
			continue
		}
		if r.res.PrivateHosts != des.PrivateHosts {
			return &Violation{"fidelity-agreement",
				fmt.Sprintf("private hosts differ: %s %d vs DES %d", r.name, r.res.PrivateHosts, des.PrivateHosts)}, ""
		}
		if math.Abs(r.res.Cost.Capex-des.Cost.Capex) > 1e-6 {
			return &Violation{"fidelity-agreement",
				fmt.Sprintf("capex differs: %s %.4f vs DES %.4f", r.name, r.res.Cost.Capex, des.Cost.Capex)}, ""
		}
	}

	// The volume clauses need the last mile up: the fluid stretches have
	// no network-failure process, while the request-level runner counts
	// every arrival during an access outage as Offline (seed
	// 0x743912ad8faad72c minimizes to a 54-student rural-DSL hybrid at
	// egress ratio 0.65). The egress clauses also need the CDN off: the
	// fluid model prices misses at the steady-state analytic Zipf hit
	// ratio while the request-level LRU starts cold (seed
	// 0xe7d7a42389866a63 minimizes to a 56-student hybrid+CDN case at
	// ratio 1.34).
	if offlineShare(des) > 0.01 {
		return nil, ""
	}
	elastic := cfg.Kind == deploy.Public || cfg.Kind == deploy.Hybrid
	if !cfg.EnableCDN && fluid.EgressGB > 0.02 {
		ratio := des.EgressGB / fluid.EgressGB
		if ratio < 0.75 || ratio > 1.30 {
			return &Violation{"fidelity-agreement",
				fmt.Sprintf("egress ratio DES/fluid = %.3f (DES %.3f GB, fluid %.3f GB) outside [0.75,1.30]",
					ratio, des.EgressGB, fluid.EgressGB)}, ""
		}
	}
	if elastic {
		ratio := des.VMHoursPublic / fluid.VMHoursPublic
		if ratio < 0.8 || ratio > 1.25 {
			return &Violation{"fidelity-agreement",
				fmt.Sprintf("public VM-hours ratio DES/fluid = %.3f (DES %.2f, fluid %.2f) outside [0.8,1.25]",
					ratio, des.VMHoursPublic, fluid.VMHoursPublic)}, ""
		}
	}
	if auto == nil || des.Served == 0 {
		return nil, ""
	}
	// Served mass: the seams lose at most the bootGrace gaps and the
	// backlog/carry approximations, and the fluid stretches assume all
	// offered load completes where the DES rejects at saturation.
	ratio := float64(auto.Served) / float64(des.Served)
	if ratio < 0.85 || ratio > 1.15 {
		return &Violation{"fidelity-agreement",
			fmt.Sprintf("served ratio auto/DES = %.3f (auto %d, DES %d) outside [0.85,1.15]",
				ratio, auto.Served, des.Served)}, ""
	}
	if !cfg.EnableCDN && des.EgressGB > 0.02 {
		ratio := auto.EgressGB / des.EgressGB
		if ratio < 0.80 || ratio > 1.25 {
			return &Violation{"fidelity-agreement",
				fmt.Sprintf("egress ratio auto/DES = %.3f (auto %.3f GB, DES %.3f GB) outside [0.80,1.25]",
					ratio, auto.EgressGB, des.EgressGB)}, ""
		}
	}
	// Public compute: the fluid stretches run the DES's own autoscaler
	// and hand each window the fleet it was running, so the seams are
	// the only gap.
	if elastic {
		ratio := auto.VMHoursPublic / des.VMHoursPublic
		if ratio < 0.8 || ratio > 1.25 {
			return &Violation{"fidelity-agreement",
				fmt.Sprintf("public VM-hours ratio auto/DES = %.3f (auto %.2f, DES %.2f) outside [0.8,1.25]",
					ratio, auto.VMHoursPublic, des.VMHoursPublic)}, ""
		}
	}
	return nil, ""
}

// agreementScope returns why fidelity-agreement does not apply to cfg
// at all, or "".
func agreementScope(cfg scenario.Config) string {
	switch {
	case cfg.Kind == deploy.Desktop:
		return "desktop has no fleet to cross-check"
	case !desFeasible(cfg):
		return "config above the request-level budget"
	case horizonOf(cfg) < 3*time.Hour:
		return "horizon under 3h: saturation outweighs the offered load"
	case cfg.HostFailureAt > 0:
		return "the fluid model does not inject host failures"
	}
	return ""
}

// autoScope returns why fidelity-agreement compares no auto run for
// cfg, or "": the threat model is whole-horizon in DES but
// window-local in an auto run, and an auto run whose plan opens no
// window is the fluid run.
func autoScope(cfg scenario.Config) (string, error) {
	if cfg.EnableThreats {
		return "the threat model is whole-horizon in DES but window-local in an auto run", nil
	}
	plan, err := scenario.PlanFidelity(cfg)
	if err != nil {
		return "", err
	}
	if len(plan.Windows) == 0 {
		return "planner opened no DES windows: the auto run is the fluid run", nil
	}
	return "", nil
}

// offlineShare is the fraction of a run's delivered or offline
// requests that a last-mile outage lost.
func offlineShare(r *scenario.Result) float64 {
	if total := float64(r.Served + r.Offline); total > 0 {
		return float64(r.Offline) / total
	}
	return 0
}

// checkPolicySanity: on a public or hybrid day with no deadline storm
// and no join spike, reactive, predictive and growth-fit, which learn
// demand only from the fleet they drive, must each serve nearly every
// arrival at close to the bill of the oracle, which provisions from the
// true demand curve. A policy that rejects a tenth of its arrivals, or
// rents far more than the oracle, is fighting its own fleet. Storms and
// joins stay out: their cliffs outrun any online policy, and reactive
// rejects up to 9% through them. Exam crowds stay in. The four runs are
// one batch on a shared pool, each at the case's own seed,
// request-level and unsharded.
func checkPolicySanity(cfg scenario.Config, _ uint64) (*Violation, string) {
	if cfg.Kind != deploy.Public && cfg.Kind != deploy.Hybrid {
		return nil, "no elastic side to scale"
	}
	if !desFeasible(cfg) {
		return nil, "config above the request-level budget"
	}
	if len(cfg.Storms) > 0 || len(cfg.Joins) > 0 {
		return nil, "storms and joins outrun every online policy"
	}
	// The bounds: each policy must reject under maxRejected of its
	// arrivals and bill at most maxVMHours times the oracle's public
	// VM-hours. Over the 126 eligible campus, mooc and chaos cases of run
	// seeds 1-3 (25 cases per family and seed; every storm and hybrid
	// case carries a storm), the worst values were 4.98% rejected
	// (reactive and growth-fit, campus case 7 at seed 1) and 1.011x the
	// oracle's VM-hours (the same two, chaos case 12 at seed 1). A
	// predictive scaler that smoothed in-flight work rejected 31.1% at
	// 1.34x on campus case seed 0xc6e55512914632ba and 24.4% at 1.84x on
	// 0x5593667449a13d3f.
	const maxRejected, maxVMHours = 0.10, 1.25
	cfg.Shards = 0
	cfg = atFidelity(cfg, scenario.FidelityDES)
	online := []scenario.ScalerKind{scenario.ScalerReactive, scenario.ScalerPredictive, scenario.ScalerGrowthFit}
	batch := scenario.NewBatch(cfg.Seed)
	for _, sk := range append(online, scenario.ScalerOracle) {
		run := cfg
		run.Scaler = sk
		batch.Add(sk.String(), run)
	}
	res, err := batch.RunOn(scenario.NewPool(4))
	if err != nil {
		return &Violation{"policy-sanity", "batch failed: " + err.Error()}, ""
	}
	oracle := res.Result(scenario.ScalerOracle.String())
	for _, sk := range online {
		r := res.Result(sk.String())
		if frac := float64(r.Rejected) / float64(max(r.Arrivals, 1)); frac >= maxRejected {
			return &Violation{"policy-sanity",
				fmt.Sprintf("%s rejected %d of %d arrivals (%.1f%%), bound %.0f%%",
					sk, r.Rejected, r.Arrivals, frac*100, maxRejected*100)}, ""
		}
		if r.VMHoursPublic > maxVMHours*oracle.VMHoursPublic {
			return &Violation{"policy-sanity",
				fmt.Sprintf("%s billed %.2f public VM-hours, %.2fx the oracle's %.2f, bound %.2fx",
					sk, r.VMHoursPublic, r.VMHoursPublic/oracle.VMHoursPublic, oracle.VMHoursPublic, maxVMHours)}, ""
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
	return horizonOf(cfg) <= 4*time.Hour && offeredBound(cfg) <= 1.2e5
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
	type path struct {
		name string
		fid  scenario.Fidelity
	}
	paths := []path{{"des", scenario.FidelityDES}}
	// The hybrid path applies when the planner opens windows (an empty
	// plan is the fluid run — nothing request-level left to band).
	if cfg.Kind != deploy.Desktop {
		if plan, err := scenario.PlanFidelity(cfg); err == nil && len(plan.Windows) > 0 {
			paths = append(paths, path{"hybrid", scenario.FidelityAuto})
		}
	}
	pool := scenario.NewPool(2)
	for _, p := range paths {
		fracs := make([]float64, 0, bandSeeds)
		p95s := make([]float64, 0, bandSeeds)
		vmhs := make([]float64, 0, bandSeeds)
		egs := make([]float64, 0, bandSeeds)
		maxOffline := 0.0
		for i := 0; i < bandSeeds; i++ {
			sub := atFidelity(cfg, p.fid)
			sub.Seed = sim.SeedFor(caseSeed, fmt.Sprintf("metamorph/band/%d", i))
			if p.fid == scenario.FidelityDES {
				sub.Shards = 0 // the one direct engine; windows keep the case's shards
			}
			r, err := pool.Run(sub)
			if err != nil {
				return &Violation{"seed-band", fmt.Sprintf("%s run at band seed %d failed: %v", p.name, i, err)}, ""
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
		if reason := bandRegime(p.name, fracs, p95s, maxOffline); reason != "" {
			return nil, reason
		}
		if v := bandViolation(p.name, fracs, p95s); v != nil {
			return v, ""
		}
		if v := bandResourceViolation(p.name, vmhs, egs); v != nil {
			return v, ""
		}
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
