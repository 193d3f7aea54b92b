package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/workload"
)

// quickCfg is a small, fast scenario: 200 students for 30 minutes.
func quickCfg(kind deploy.Kind) Config {
	return Config{
		Seed:              42,
		Kind:              kind,
		Students:          200,
		ReqPerStudentHour: 40,
		Duration:          30 * time.Minute,
		Access:            network.UrbanBroadband,
	}
}

func TestRunPublicBasics(t *testing.T) {
	res, err := Run(quickCfg(deploy.Public))
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.Latency.Count() != res.Served {
		t.Fatalf("latency samples %d != served %d", res.Latency.Count(), res.Served)
	}
	// End-to-end latency must include WAN time: p50 well above pure
	// service time (~25ms) but sane (< 5s) at this load.
	if p50 := res.Latency.P50(); p50 < 0.03 || p50 > 5 {
		t.Fatalf("p50 = %v s, implausible", p50)
	}
	if res.VMHoursPublic <= 0 {
		t.Fatal("no public VM-hours accrued")
	}
	if res.VMHoursPrivate != 0 || res.PrivateHosts != 0 {
		t.Fatal("public run touched private infrastructure")
	}
	if res.EgressGB <= 0 {
		t.Fatal("no egress recorded")
	}
	if res.Cost.Total() <= 0 {
		t.Fatal("no cost billed")
	}
	if res.Cost.Capex != 0 {
		t.Fatal("public run billed capex")
	}
	if res.Servers.Len() == 0 {
		t.Fatal("no fleet samples recorded")
	}
}

func TestRunPrivateBasics(t *testing.T) {
	cfg := quickCfg(deploy.Private)
	cfg.Access = network.CampusLAN
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.VMHoursPublic != 0 {
		t.Fatal("private run used public cloud")
	}
	if res.PrivateHosts <= 0 {
		t.Fatal("no private hosts")
	}
	if res.EgressGB != 0 {
		t.Fatal("private run recorded public egress")
	}
	if res.Cost.Compute != 0 {
		t.Fatal("private run billed rented compute")
	}
	if res.Cost.Capex <= 0 || res.Cost.Staff <= 0 {
		t.Fatalf("private bill missing ownership costs: %v", res.Cost)
	}
	// Campus LAN: no failure process, so full availability and no
	// offline requests.
	if res.NetAvailability != 1 || res.Offline != 0 {
		t.Fatalf("LAN availability = %v, offline = %d", res.NetAvailability, res.Offline)
	}
	// LAN latency beats WAN latency.
	pub, err := Run(quickCfg(deploy.Public))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.P50() >= pub.Latency.P50() {
		t.Fatalf("campus LAN p50 %v >= public WAN p50 %v",
			res.Latency.P50(), pub.Latency.P50())
	}
}

func TestRunHybridSplitsTraffic(t *testing.T) {
	cfg := quickCfg(deploy.Hybrid)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.VMHoursPublic <= 0 || res.VMHoursPrivate <= 0 {
		t.Fatalf("hybrid must use both sides: pub=%v priv=%v",
			res.VMHoursPublic, res.VMHoursPrivate)
	}
	if res.Cost.Integration <= 0 {
		t.Fatal("hybrid bill missing integration overhead")
	}
	// Egress exists but is smaller than an all-public run (sensitive
	// traffic stays home).
	pub, err := Run(quickCfg(deploy.Public))
	if err != nil {
		t.Fatal(err)
	}
	if res.EgressGB <= 0 || res.EgressGB >= pub.EgressGB {
		t.Fatalf("hybrid egress %v should be positive and below public %v",
			res.EgressGB, pub.EgressGB)
	}
}

func TestRunDesktopBaseline(t *testing.T) {
	res, err := Run(quickCfg(deploy.Desktop))
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.VMHoursPublic != 0 || res.VMHoursPrivate != 0 {
		t.Fatal("desktop used datacenters")
	}
	if res.Cost.Desktop <= 0 {
		t.Fatal("desktop bill missing lab PCs")
	}
	if res.Offline != 0 || res.Rejected != 0 {
		t.Fatal("local software cannot be offline or saturated")
	}
	if res.LostWork != 0 || res.Disconnects != 0 {
		t.Fatal("desktop sessions are not network-bound")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(quickCfg(deploy.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(deploy.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.Rejected != b.Rejected || a.Offline != b.Offline {
		t.Fatalf("outcome counts diverged: %+v vs %+v",
			[3]uint64{a.Served, a.Rejected, a.Offline},
			[3]uint64{b.Served, b.Rejected, b.Offline})
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.P99() != b.Latency.P99() {
		t.Fatal("latency distributions diverged")
	}
	if a.VMHoursPublic != b.VMHoursPublic || a.EgressGB != b.EgressGB {
		t.Fatal("consumption diverged")
	}
	c := quickCfg(deploy.Hybrid)
	c.Seed = 43
	other, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if other.Served == a.Served && other.Latency.Mean() == a.Latency.Mean() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRunExamSpikeDegradesFixedFleet(t *testing.T) {
	// A 12x exam crowd: the reactive public fleet absorbs it; a public
	// fleet pinned to a deliberately undersized fixed fleet suffers.
	// Flat diurnal keeps the load analytic regardless of time of day.
	base := Config{
		Seed:              7,
		Kind:              deploy.Public,
		Students:          1000,
		ReqPerStudentHour: 60,
		Duration:          2 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Crowds: []workload.FlashCrowd{{
			Start: 30 * time.Minute, End: 90 * time.Minute, Mult: 12, ExamTraffic: true,
		}},
	}
	reactive := base
	reactive.Scaler = ScalerReactive
	r1, err := Run(reactive)
	if err != nil {
		t.Fatal(err)
	}
	fixedSmall := base
	fixedSmall.Scaler = ScalerFixed
	fixedSmall.MaxPublicServers = 2 // deliberately undersized
	r2, err := Run(fixedSmall)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PeakServers <= 2 {
		t.Fatalf("reactive fleet never scaled (peak=%d)", r1.PeakServers)
	}
	// The undersized fixed fleet must show strictly worse tail latency
	// or rejections.
	if r2.Rejected == 0 && r2.Latency.P99() <= r1.Latency.P99() {
		t.Fatalf("undersized fixed fleet showed no distress: p99 %v vs %v, rejected %d",
			r2.Latency.P99(), r1.Latency.P99(), r2.Rejected)
	}
}

func TestRunRuralOutagesLoseWork(t *testing.T) {
	cfg := quickCfg(deploy.Public)
	cfg.Duration = 12 * time.Hour
	cfg.Students = 50
	cfg.ReqPerStudentHour = 10
	// Very flaky access: failures every ~2h, 30 min repairs.
	cfg.Access = network.AccessProfile{
		Name: "awful", LatencyMean: 0.05, LatencySigma: 0.4, Mbps: 3,
		MTBF: 2 * 3600, MTTR: 1800,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disconnects == 0 {
		t.Fatal("no disconnects in 12h at 2h MTBF")
	}
	if res.LostWork <= 0 {
		t.Fatal("disconnects destroyed no work")
	}
	if res.Offline == 0 {
		t.Fatal("no offline requests during outages")
	}
	if res.NetAvailability >= 1 {
		t.Fatalf("availability = %v, want < 1", res.NetAvailability)
	}
}

func TestRunWithCDN(t *testing.T) {
	// Long enough for the edge cache to warm: a cold cache pays CDN
	// price plus origin egress and loses to raw egress, which is the
	// realistic short-run behavior but not what this test checks.
	base := quickCfg(deploy.Public)
	base.Duration = 4 * time.Hour
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withCDN := base
	withCDN.EnableCDN = true
	cdnRes, err := Run(withCDN)
	if err != nil {
		t.Fatal(err)
	}
	if cdnRes.CDNGB <= 0 {
		t.Fatal("CDN served nothing")
	}
	if cdnRes.CDNHitRatio <= 0.3 {
		t.Fatalf("CDN hit ratio = %v, implausibly low", cdnRes.CDNHitRatio)
	}
	// Raw egress shrinks: video moved to the CDN (only misses remain).
	if cdnRes.EgressGB >= plain.EgressGB {
		t.Fatalf("CDN egress %v >= plain %v", cdnRes.EgressGB, plain.EgressGB)
	}
	// And delivery gets cheaper in total.
	if cdnRes.Cost.Egress+cdnRes.Cost.CDN >= plain.Cost.Egress {
		t.Fatalf("CDN delivery $%v >= raw egress $%v",
			cdnRes.Cost.Egress+cdnRes.Cost.CDN, plain.Cost.Egress)
	}
	// Private deployments have no public side: the CDN flag is a no-op.
	priv := quickCfg(deploy.Private)
	priv.EnableCDN = true
	privRes, err := Run(priv)
	if err != nil {
		t.Fatal(err)
	}
	if privRes.CDNGB != 0 {
		t.Fatal("private run used a CDN")
	}
}

func TestRunHostFailureInjection(t *testing.T) {
	cfg := Config{
		Seed:              5,
		Kind:              deploy.Private,
		Students:          800,
		ReqPerStudentHour: 60,
		Duration:          2 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Crowds: []workload.FlashCrowd{{
			Start: 20 * time.Minute, End: 100 * time.Minute, Mult: 10, ExamTraffic: true,
		}},
		HostFailureAt:     40 * time.Minute,
		HostRecoveryAfter: 30 * time.Minute,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledJobs <= 0 {
		t.Fatal("host failure mid-crowd killed no jobs")
	}
	if res.ErrorRate() <= 0 {
		t.Fatal("host failure produced no user-visible errors")
	}
	// The undisturbed twin must be strictly healthier.
	clean := cfg
	clean.HostFailureAt = 0
	ref, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ref.KilledJobs != 0 {
		t.Fatal("reference run killed jobs")
	}
	if ref.ErrorRate() >= res.ErrorRate() {
		t.Fatalf("reference error rate %v >= damaged %v", ref.ErrorRate(), res.ErrorRate())
	}
	// Recovery works: after repair the fleet serves again, so the run
	// still completes a majority of requests.
	if res.Served == 0 || float64(res.Served) < 0.5*float64(ref.Served) {
		t.Fatalf("served %d vs reference %d — recovery failed", res.Served, ref.Served)
	}
}

func TestRunWithThreats(t *testing.T) {
	cfg := quickCfg(deploy.Public)
	cfg.EnableThreats = true
	cfg.Duration = 48 * time.Hour
	cfg.Students = 50
	cfg.ReqPerStudentHour = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 48h at 30 attacks/month ~ 2 attacks; breaches are rare — just
	// confirm the plumbing reports consistent numbers.
	if res.Breaches < 0 || res.SensitiveExposures < 0 {
		t.Fatal("negative threat counts")
	}
	if res.Breaches == 0 && res.SensitiveExposures > 0 {
		t.Fatal("exposures without breaches")
	}
}

func TestRunScheduledAndPredictiveScalers(t *testing.T) {
	// Exercise the two remaining scaler integrations end to end: both
	// must produce a live fleet that serves the bulk of the load.
	for _, sk := range []ScalerKind{ScalerScheduled, ScalerPredictive} {
		cfg := Config{
			Seed:              9,
			Kind:              deploy.Public,
			Students:          300,
			ReqPerStudentHour: 40,
			Duration:          2 * time.Hour,
			Scaler:            sk,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", sk, err)
		}
		if res.Served == 0 {
			t.Fatalf("%v: nothing served", sk)
		}
		if res.ErrorRate() > 0.2 {
			t.Fatalf("%v: error rate %v under steady load", sk, res.ErrorRate())
		}
		if res.PeakServers < 1 {
			t.Fatalf("%v: no servers", sk)
		}
	}
}

func TestRunStrictVsRelaxedPinning(t *testing.T) {
	base := Config{
		Seed:              13,
		Kind:              deploy.Hybrid,
		Students:          800,
		ReqPerStudentHour: 50,
		Duration:          2 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		HybridPolicy:      deploy.HybridPolicy{SensitivePrivate: true, PrivateBaseShare: 0.25},
		Crowds: []workload.FlashCrowd{{
			Start: 30 * time.Minute, End: 90 * time.Minute, Mult: 10, ExamTraffic: true,
		}},
	}
	strict := base
	strict.StrictPinning = true
	sRes, err := Run(strict)
	if err != nil {
		t.Fatal(err)
	}
	relaxed := base
	relaxed.StrictPinning = false
	rRes, err := Run(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.PolicyViolations != 0 {
		t.Fatalf("strict pinning burst %d sensitive requests", sRes.PolicyViolations)
	}
	if rRes.PolicyViolations == 0 {
		t.Fatal("relaxed pinning never burst under an undersized private share")
	}
	// Relaxed trades confidentiality for availability: strictly fewer
	// user-visible errors.
	if rRes.ErrorRate() >= sRes.ErrorRate() {
		t.Fatalf("relaxed errors %v >= strict %v", rRes.ErrorRate(), sRes.ErrorRate())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := quickCfg(deploy.Public)
	bad.ReqPerStudentHour = -5
	if _, err := Run(bad); err == nil {
		t.Fatal("negative rate accepted")
	}
	entries := map[string]func(Config) error{
		"Run":        func(c Config) error { _, err := Run(c); return err },
		"FluidRun":   func(c Config) error { _, err := FluidRun(c); return err },
		"HybridRun":  func(c Config) error { _, err := HybridRun(c, NewPool(1)); return err },
		"ShardedRun": func(c Config) error { _, err := ShardedRun(c, NewPool(1)); return err },
		"PlanFidelity": func(c Config) error {
			_, err := PlanFidelity(c)
			return err
		},
	}
	for _, bad := range badEnumCfgs() {
		for name, run := range entries {
			expectErrorNaming(t, name, bad.cfg, run, bad.value)
		}
	}
}

// badEnum is a config with one out-of-range enum, count or number, and
// how an error must name that value.
type badEnum struct {
	cfg   Config
	value string
}

// badEnumCfgs are the configs every entry point must reject with an
// error naming the bad value, instead of panicking or running to a
// plausible-looking result.
func badEnumCfgs() []badEnum {
	with := func(edit func(*Config)) Config {
		c := quickCfg(deploy.Public)
		c.Seed, c.Students, c.ReqPerStudentHour, c.Duration = 1, 100, 10, 20*time.Minute
		edit(&c)
		return c
	}
	access := func(edit func(*network.AccessProfile)) Config {
		return with(func(c *Config) {
			c.Access = network.UrbanBroadband
			c.Access.Name = "custom"
			edit(&c.Access)
		})
	}
	nan := math.NaN()
	return []badEnum{
		{with(func(c *Config) { c.Kind = deploy.Kind(9) }), "Kind(9)"},
		{with(func(c *Config) { c.Scaler = ScalerKind(42) }), "ScalerKind(42)"},
		{with(func(c *Config) { c.Shards = -3 }), "-3"},
		{access(func(a *network.AccessProfile) { a.Mbps = 0 }), "Mbps = 0"},
		{access(func(a *network.AccessProfile) { a.LatencyMean = 0 }), "LatencyMean = 0"},
		{access(func(a *network.AccessProfile) { a.LatencySigma = -1 }), "LatencySigma = -1"},
		{access(func(a *network.AccessProfile) { a.MTBF = -5 }), "MTBF = -5"},
		{access(func(a *network.AccessProfile) { a.MTBF, a.MTTR = 100, 0 }), "MTTR = 0"},
		{with(func(c *Config) { c.ReqPerStudentHour = nan }), "ReqPerStudentHour = NaN"},
		{with(func(c *Config) { c.ReqPerStudentHour = math.Inf(1) }), "ReqPerStudentHour = +Inf"},
		{with(func(c *Config) { c.HybridIntensity = nan }), "HybridIntensity = NaN"},
		{with(func(c *Config) {
			c.Crowds = []workload.FlashCrowd{{Start: 5 * time.Minute, End: 10 * time.Minute, Mult: nan}}
		}), "Mult = NaN"},
		{with(func(c *Config) {
			c.Storms = []workload.DeadlineStorm{{Deadline: 15 * time.Minute, Ramp: 10 * time.Minute, PeakMult: nan}}
		}), "PeakMult = NaN"},
		{with(func(c *Config) {
			c.Joins = []workload.JoinStorm{{Start: 5 * time.Minute, Window: 5 * time.Minute, PeakMult: nan}}
		}), "PeakMult = NaN"},
	}
}

// expectErrorNaming fails unless run rejects cfg with an error that
// names value.
func expectErrorNaming(t *testing.T, entry string, cfg Config, run func(Config) error, value string) {
	t.Helper()
	err := run(cfg)
	if err == nil {
		t.Errorf("%s accepted %s", entry, value)
		return
	}
	if !strings.Contains(err.Error(), value) {
		t.Errorf("%s: error %q does not name %s", entry, err, value)
	}
}

func TestScalerKindString(t *testing.T) {
	names := map[ScalerKind]string{
		ScalerFixed: "fixed", ScalerReactive: "reactive",
		ScalerScheduled: "scheduled", ScalerPredictive: "predictive",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if ScalerKind(9).String() != "ScalerKind(9)" {
		t.Error("unknown scaler string wrong")
	}
}

func TestErrorRate(t *testing.T) {
	r := &Result{Served: 90, Rejected: 5, Offline: 5}
	if got := r.ErrorRate(); got != 0.1 {
		t.Fatalf("ErrorRate = %v", got)
	}
	if (&Result{}).ErrorRate() != 0 {
		t.Fatal("empty ErrorRate != 0")
	}
}
