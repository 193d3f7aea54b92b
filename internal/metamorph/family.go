package metamorph

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// Family is one named distribution over scenario configurations. Its
// generator must be total: any case seed yields a valid config, with
// every random choice drawn from the RNG it is handed, so a case is a
// pure function of (family name, case seed).
type Family struct {
	// Name identifies the family ("campus", "mooc", ...).
	Name string
	// Desc is a one-line description for elfuzz -list.
	Desc string
	// Tags classify the family's cases, same vocabulary as the
	// experiment registry's tags (@mooc, @storm, @chaos, ...).
	Tags []string

	gen func(r *sim.RNG) scenario.Config
}

// Case is one generated scenario: a reproducible (Family, Seed) pair.
// Re-deriving the case from the same pair yields an identical Cfg.
type Case struct {
	// Family is the generating family's name.
	Family string
	// Seed is the case seed the config was derived from.
	Seed uint64
	// Tags echo the family's tags.
	Tags []string
	// Cfg is the generated scenario, with Cfg.Seed already set (derived
	// from the case seed, never zero).
	Cfg scenario.Config
}

// Families returns every registered scenario family.
func Families() []Family {
	return []Family{
		{
			Name: "campus",
			Desc: "campus-scale day: random model/scaler, diurnal shape, optional exam crowds",
			Tags: []string{"@des", "@crowd"},
			gen:  genCampus,
		},
		{
			Name: "mooc",
			Desc: "enrollment growth and timezone superpositions, DES-feasible and full MOOC scale",
			Tags: []string{"@mooc", "@growth", "@fluid", "@des"},
			gen:  genMOOC,
		},
		{
			Name: "storm",
			Desc: "deadline/join storms over a flat or campus day, public elastic fleet",
			Tags: []string{"@storm", "@des", "@scaling"},
			gen:  genStorm,
		},
		{
			Name: "chaos",
			Desc: "outages: flaky last miles, mid-run host failures, live threat model",
			Tags: []string{"@chaos", "@des", "@network"},
			gen:  genChaos,
		},
		{
			Name: "hybrid",
			Desc: "burst-laden courses through the auto-fidelity planner: fluid stretches, DES storm windows",
			Tags: []string{"@mooc", "@storm", "@fluid", "@des"},
			gen:  genHybrid,
		},
	}
}

// FindFamily returns the named family.
func FindFamily(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("metamorph: unknown family %q", name)
}

// CaseSeed derives case i's seed from a run seed, following the
// (seed, name) rule: the same (run seed, family, index) always names the
// same case, and distinct indices decorrelate.
func CaseSeed(runSeed uint64, family string, i int) uint64 {
	return sim.SeedFor(runSeed, fmt.Sprintf("metamorph/%s/case-%d", family, i))
}

// Case derives the family's scenario for caseSeed. The generator RNG
// and the scenario's own seed come from independent sim.SeedFor
// derivations, so shape choices never share a stream with run
// randomness.
func (f Family) Case(caseSeed uint64) Case {
	r := sim.NewRNG(sim.SeedFor(caseSeed, "metamorph/gen"))
	cfg := f.gen(r)
	cfg.Seed = sim.SeedFor(caseSeed, "metamorph/scenario")
	return Case{Family: f.Name, Seed: caseSeed, Tags: f.Tags, Cfg: cfg}
}

// --- shared random-choice helpers -------------------------------------

// between returns a uniform int in [lo, hi].
func between(r *sim.RNG, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// betweenMin returns a uniform whole-minute duration in [lo, hi] minutes.
func betweenMin(r *sim.RNG, lo, hi int) time.Duration {
	return time.Duration(between(r, lo, hi)) * time.Minute
}

// pickKind draws a deployment model; desktop is rare because it skips
// most queueing-level invariants.
func pickKind(r *sim.RNG) deploy.Kind {
	switch r.Pick([]float64{4, 3, 3, 1}) {
	case 0:
		return deploy.Public
	case 1:
		return deploy.Private
	case 2:
		return deploy.Hybrid
	default:
		return deploy.Desktop
	}
}

// pickScaler draws an elasticity policy (widenScaler adds the rest).
func pickScaler(r *sim.RNG) scenario.ScalerKind {
	return []scenario.ScalerKind{
		scenario.ScalerFixed, scenario.ScalerReactive,
		scenario.ScalerScheduled, scenario.ScalerPredictive,
	}[r.Intn(4)]
}

// pickDiurnal draws a day shape: flat, campus, or a random multi-
// timezone superposition.
func pickDiurnal(r *sim.RNG) *workload.DiurnalProfile {
	switch r.Intn(3) {
	case 0:
		return workload.FlatDiurnal()
	case 1:
		return workload.CampusDiurnal()
	default:
		return randomSuperposition(r)
	}
}

// randomSuperposition builds a 2-4 wave timezone blend with random
// shifts and weights; waves use the campus day as their local shape.
func randomSuperposition(r *sim.RNG) *workload.DiurnalProfile {
	waves := make([]workload.TimezoneWave, between(r, 2, 4))
	for i := range waves {
		waves[i] = workload.TimezoneWave{
			// Shifts land on half hours in [-12h, +12h), like real zones.
			Shift:  time.Duration(between(r, -24, 23)) * 30 * time.Minute,
			Weight: 0.5 + r.Float64(),
		}
	}
	return workload.SuperposeTimezones(waves)
}

// pickShards draws the sharded-execution layout. Every family draws it
// LAST, after all other choices, so the field rides on top of
// previously minimized case seeds without disturbing their earlier
// draws: most cases stay single-engine (Shards=0 exercises the direct
// path and the one-shard identity), the rest split across 2-4 per-
// shard engines.
func pickShards(r *sim.RNG) int {
	if r.Bernoulli(0.3) {
		return between(r, 2, 4)
	}
	return 0
}

// widenScaler redraws a third of the cases' policy as growth-fit or
// the oracle, so every invariant sees both. Families that draw a policy
// draw this after pickShards, for the reason pickShards is drawn last.
func widenScaler(r *sim.RNG, sk scenario.ScalerKind) scenario.ScalerKind {
	switch r.Intn(6) {
	case 0:
		return scenario.ScalerGrowthFit
	case 1:
		return scenario.ScalerOracle
	}
	return sk
}

// randomCrowd draws an exam flash crowd inside the horizon.
func randomCrowd(r *sim.RNG, duration time.Duration) workload.FlashCrowd {
	durMin := int(duration / time.Minute)
	start := betweenMin(r, 10, durMin-50)
	return workload.FlashCrowd{
		Start:       start,
		End:         start + betweenMin(r, 20, 40),
		Mult:        float64(between(r, 2, 7)),
		ExamTraffic: r.Bernoulli(0.5),
	}
}

// randomDeadlineStorm draws a procrastination ramp whose cliff lands
// inside the horizon.
func randomDeadlineStorm(r *sim.RNG, duration time.Duration) workload.DeadlineStorm {
	durMin := int(duration / time.Minute)
	rampMin := between(r, 30, min(90, durMin-20))
	s := workload.DeadlineStorm{
		Ramp:        time.Duration(rampMin) * time.Minute,
		Deadline:    betweenMin(r, rampMin+10, durMin-5),
		PeakMult:    float64(between(r, 4, 10)),
		ExamTraffic: r.Bernoulli(0.6),
	}
	if r.Bernoulli(0.5) {
		s.Tau = s.Ramp / time.Duration(between(r, 3, 5))
	}
	return s
}

// randomJoinStorm draws a live-session join spike inside the horizon.
func randomJoinStorm(r *sim.RNG, duration time.Duration) workload.JoinStorm {
	durMin := int(duration / time.Minute)
	return workload.JoinStorm{
		Start:       betweenMin(r, 10, durMin-40),
		Window:      betweenMin(r, 15, 35),
		PeakMult:    float64(between(r, 4, 8)),
		ExamTraffic: r.Bernoulli(0.5),
	}
}

// --- the families -----------------------------------------------------

// genCampus composes an ordinary institution day: constant population,
// any deployment model and scaler, a random day shape, and up to two
// exam flash crowds.
func genCampus(r *sim.RNG) scenario.Config {
	cfg := scenario.Config{
		Kind:              pickKind(r),
		Students:          between(r, 300, 1100),
		ReqPerStudentHour: float64(between(r, 30, 60)),
		Duration:          time.Duration(between(r, 2, 4)) * time.Hour,
		Diurnal:           pickDiurnal(r),
		Scaler:            pickScaler(r),
		Access:            network.UrbanBroadband,
	}
	for n := r.Intn(3); n > 0; n-- {
		cfg.Crowds = append(cfg.Crowds, randomCrowd(r, cfg.Duration))
	}
	if cfg.Kind != deploy.Desktop && r.Bernoulli(0.25) {
		cfg.EnableCDN = true
	}
	cfg.Shards = pickShards(r)
	cfg.Scaler = widenScaler(r, cfg.Scaler)
	return cfg
}

// genMOOC composes a growing course. Three of four cases stay at a
// DES-feasible scale so the queueing invariants run; the fourth is a
// full MOOC-scale multi-week course that exercises the fluid model and
// the generator-level envelope bound at 10^4-10^5 students.
func genMOOC(r *sim.RNG) scenario.Config {
	fluidScale := r.Intn(4) == 0
	cfg := scenario.Config{
		Diurnal: pickDiurnal(r),
		Scaler:  pickScaler(r),
		Access:  network.UrbanBroadband,
	}
	if r.Bernoulli(0.3) {
		cfg.Diurnal = workload.GlobalCohort()
	}
	if fluidScale {
		weeks := between(r, 1, 3)
		cfg.Duration = time.Duration(weeks) * 7 * 24 * time.Hour
		cfg.ReqPerStudentHour = float64(between(r, 5, 10))
		cfg.Kind = []deploy.Kind{deploy.Public, deploy.Private, deploy.Hybrid}[r.Intn(3)]
		start := between(r, 5000, 10000)
		if r.Bernoulli(0.5) {
			cfg.Growth = workload.LogisticGrowth(start, start*between(r, 4, 10),
				cfg.Duration*time.Duration(between(r, 30, 50))/100)
		} else {
			cfg.Growth = workload.LinearGrowth(start, start*between(r, 3, 8),
				cfg.Duration*time.Duration(between(r, 40, 75))/100)
		}
		cfg.Shards = pickShards(r)
		cfg.Scaler = widenScaler(r, cfg.Scaler)
		return cfg
	}
	cfg.Duration = time.Duration(between(r, 2, 3)) * time.Hour
	cfg.ReqPerStudentHour = float64(between(r, 20, 40))
	cfg.Kind = []deploy.Kind{deploy.Public, deploy.Hybrid}[r.Intn(2)]
	start := between(r, 300, 600)
	if r.Bernoulli(0.5) {
		cfg.Growth = workload.LogisticGrowth(start, start*between(r, 3, 6),
			cfg.Duration*time.Duration(between(r, 30, 60))/100)
	} else {
		cfg.Growth = workload.LinearGrowth(start, start*between(r, 3, 6),
			cfg.Duration*time.Duration(between(r, 40, 75))/100)
	}
	if r.Bernoulli(0.3) {
		cfg.Storms = append(cfg.Storms, randomDeadlineStorm(r, cfg.Duration))
	}
	cfg.Shards = pickShards(r)
	cfg.Scaler = widenScaler(r, cfg.Scaler)
	return cfg
}

// genStorm composes figure10-class stress: one or two deadline storms,
// possibly a join spike, on a public elastic fleet.
func genStorm(r *sim.RNG) scenario.Config {
	cfg := scenario.Config{
		Kind:              deploy.Public,
		Students:          between(r, 400, 1000),
		ReqPerStudentHour: float64(between(r, 30, 50)),
		Duration:          time.Duration(between(r, 2, 4)) * time.Hour,
		Scaler: []scenario.ScalerKind{
			scenario.ScalerReactive, scenario.ScalerScheduled, scenario.ScalerPredictive,
		}[r.Intn(3)],
		Access: network.UrbanBroadband,
	}
	if r.Bernoulli(0.5) {
		cfg.Diurnal = workload.FlatDiurnal()
	} else {
		cfg.Diurnal = workload.CampusDiurnal()
	}
	for n := between(r, 1, 2); n > 0; n-- {
		cfg.Storms = append(cfg.Storms, randomDeadlineStorm(r, cfg.Duration))
	}
	if r.Bernoulli(0.5) {
		cfg.Joins = append(cfg.Joins, randomJoinStorm(r, cfg.Duration))
	}
	cfg.Shards = pickShards(r)
	cfg.Scaler = widenScaler(r, cfg.Scaler)
	return cfg
}

// genHybrid composes the auto-fidelity planner's home regime: a
// DES-feasible course whose deadline storms (and optional join spike or
// exam crowd) force the planner to open request-level windows inside an
// otherwise fluid horizon. Half the cases also perturb the planner
// knobs themselves, so the window/segment partition is fuzzed along
// with the load shape.
func genHybrid(r *sim.RNG) scenario.Config {
	cfg := scenario.Config{
		// Mostly elastic deployments: the seam stitching's interesting
		// state (warm fleet, backlog, CDN edge) lives on the public side.
		Kind:              []deploy.Kind{deploy.Public, deploy.Public, deploy.Hybrid, deploy.Private}[r.Intn(4)],
		Students:          between(r, 300, 800),
		ReqPerStudentHour: float64(between(r, 20, 40)),
		Duration:          time.Duration(between(r, 3, 6)) * time.Hour,
		Diurnal:           pickDiurnal(r),
		Scaler:            pickScaler(r),
		Access:            network.UrbanBroadband,
	}
	for n := between(r, 1, 2); n > 0; n-- {
		cfg.Storms = append(cfg.Storms, randomDeadlineStorm(r, cfg.Duration))
	}
	if r.Bernoulli(0.4) {
		cfg.Joins = append(cfg.Joins, randomJoinStorm(r, cfg.Duration))
	}
	if r.Bernoulli(0.25) {
		cfg.Crowds = append(cfg.Crowds, randomCrowd(r, cfg.Duration))
	}
	if r.Bernoulli(0.25) {
		cfg.EnableCDN = true
	}
	if r.Bernoulli(0.5) {
		// Perturb the planner: intensity in [1.2, 3.0], guard in [5, 20]
		// minutes. The plan must stay a pure function of the config for
		// any knob setting.
		cfg.HybridIntensity = 1.2 + float64(between(r, 0, 18))/10
		cfg.HybridGuard = betweenMin(r, 5, 20)
	}
	cfg.Shards = pickShards(r)
	cfg.Scaler = widenScaler(r, cfg.Scaler)
	return cfg
}

// genChaos composes outage scenarios: flaky rural last miles, a private
// host destroyed mid-run, and the live threat model — the §IV.B risks
// injected at random times.
func genChaos(r *sim.RNG) scenario.Config {
	cfg := scenario.Config{
		Kind:              []deploy.Kind{deploy.Public, deploy.Private, deploy.Hybrid}[r.Intn(3)],
		Students:          between(r, 300, 900),
		ReqPerStudentHour: float64(between(r, 30, 60)),
		Duration:          time.Duration(between(r, 2, 4)) * time.Hour,
		Diurnal:           pickDiurnal(r),
		Scaler:            scenario.ScalerReactive,
		Access:            network.UrbanBroadband,
	}
	if r.Bernoulli(0.5) {
		cfg.Access = network.RuralDSL
	}
	if cfg.Kind != deploy.Public && r.Bernoulli(0.7) {
		cfg.HostFailureAt = cfg.Duration * time.Duration(between(r, 25, 60)) / 100
		cfg.HostRecoveryAfter = betweenMin(r, 20, 60)
	}
	cfg.EnableThreats = r.Bernoulli(0.5)
	if r.Bernoulli(0.4) {
		cfg.Crowds = append(cfg.Crowds, randomCrowd(r, cfg.Duration))
	}
	cfg.Shards = pickShards(r)
	return cfg
}
