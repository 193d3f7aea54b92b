package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

func fluidCfg(kind deploy.Kind, students int) Config {
	return Config{
		Fidelity:          FidelityFluid,
		Seed:              1,
		Kind:              kind,
		Students:          students,
		ReqPerStudentHour: 50,
		Duration:          workload.StandardSemester().Duration(),
		Calendar:          workload.StandardSemester(),
	}
}

func TestFluidSemesterShapes(t *testing.T) {
	pub, err := Run(fluidCfg(deploy.Public, 2000))
	if err != nil {
		t.Fatal(err)
	}
	priv, err := Run(fluidCfg(deploy.Private, 2000))
	if err != nil {
		t.Fatal(err)
	}

	// Elastic fleet consumes far fewer VM-hours than an always-on fleet
	// sized for the finals peak.
	if pub.VMHoursPublic >= priv.VMHoursPrivate {
		t.Fatalf("elastic VM-hours %v >= always-on %v", pub.VMHoursPublic, priv.VMHoursPrivate)
	}
	// The private fleet idles most of the semester: the paper's
	// underutilization argument.
	if priv.MeanPrivateUtil > 0.6 {
		t.Fatalf("private utilization %v suspiciously high", priv.MeanPrivateUtil)
	}
	if priv.MeanPrivateUtil <= 0 {
		t.Fatal("private utilization not measured")
	}
	// Peak fleet sizes should be comparable (both must absorb finals).
	if pub.PeakServers < priv.PeakServers/2 {
		t.Fatalf("public peak %d far below private fixed %d", pub.PeakServers, priv.PeakServers)
	}
	if pub.EgressGB <= 0 {
		t.Fatal("no egress estimated for public")
	}
	if priv.EgressGB != 0 {
		t.Fatal("private estimated public egress")
	}
	if pub.Rate.Len() == 0 || pub.Servers.Len() == 0 {
		t.Fatal("figure series missing")
	}
}

func TestFluidHybridBetween(t *testing.T) {
	pub, err := Run(fluidCfg(deploy.Public, 2000))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(fluidCfg(deploy.Hybrid, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if hyb.VMHoursPrivate <= 0 || hyb.VMHoursPublic <= 0 {
		t.Fatal("hybrid should use both sides across a semester")
	}
	if hyb.EgressGB >= pub.EgressGB {
		t.Fatal("hybrid egress should be below all-public")
	}
	if hyb.Cost.Integration <= 0 {
		t.Fatal("hybrid missing integration overhead")
	}
}

func TestFluidCostCrossover(t *testing.T) {
	// Small school: public wins. Big university: private wins. This is
	// the Figure 3 crossover in miniature.
	smallPub, err := Run(fluidCfg(deploy.Public, 200))
	if err != nil {
		t.Fatal(err)
	}
	smallPriv, err := Run(fluidCfg(deploy.Private, 200))
	if err != nil {
		t.Fatal(err)
	}
	if smallPub.Cost.Total() >= smallPriv.Cost.Total() {
		t.Fatalf("small scale: public %v >= private %v",
			smallPub.Cost.Total(), smallPriv.Cost.Total())
	}
	bigPub, err := Run(fluidCfg(deploy.Public, 20000))
	if err != nil {
		t.Fatal(err)
	}
	bigPriv, err := Run(fluidCfg(deploy.Private, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if bigPub.Cost.Total() <= bigPriv.Cost.Total() {
		t.Fatalf("large scale: public %v <= private %v",
			bigPub.Cost.Total(), bigPriv.Cost.Total())
	}
}

func TestFluidDesktop(t *testing.T) {
	res, err := Run(fluidCfg(deploy.Desktop, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.VMHoursPublic != 0 || res.VMHoursPrivate != 0 {
		t.Fatal("desktop consumed VM-hours")
	}
	if res.Cost.Desktop <= 0 {
		t.Fatal("desktop bill empty")
	}
}

func TestFluidCostPerStudentScaleEconomies(t *testing.T) {
	small, err := Run(fluidCfg(deploy.Private, 500))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(fluidCfg(deploy.Private, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if big.CostPerStudentMonth(10000) >= small.CostPerStudentMonth(500) {
		t.Fatalf("no economies of scale: big %v >= small %v",
			big.CostPerStudentMonth(10000), small.CostPerStudentMonth(500))
	}
}

func TestFluidValidation(t *testing.T) {
	if _, err := Run(Config{Fidelity: FidelityFluid}); err == nil {
		t.Fatal("zero config accepted")
	}
	for _, bad := range badEnumCfgs() {
		expectErrorNaming(t, "fluid", bad.cfg, runAt(FidelityFluid), bad.value)
	}
}

func TestFluidDeterminism(t *testing.T) {
	a, err := Run(fluidCfg(deploy.Hybrid, 1500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fluidCfg(deploy.Hybrid, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if a.VMHoursPublic != b.VMHoursPublic || a.Cost.Total() != b.Cost.Total() {
		t.Fatal("fluid run not deterministic")
	}
}

// The fluid fleet is the scale.Target the fluid model's autoscaler
// drives: a server serves only after its boot, scale-in drops the
// newest servers first, a saturated fleet reads the admission limit,
// and the arrival count never falls.
func TestFluidFleet(t *testing.T) {
	eng := sim.NewEngine(1)
	f := &fluidFleet{eng: eng, max: 3, rate: 100, meanSvc: 0.01}
	f.ScaleTo(1)
	if f.Load() != 0 {
		t.Fatalf("load %v while the only server boots, want 0 (no capacity)", f.Load())
	}
	eng.Run(deploy.PublicBoot() - 1)
	if f.Load() != 0 {
		t.Fatal("server served before its boot ended")
	}
	eng.Run(deploy.PublicBoot())
	if f.Load() != lms.AdmissionLimit {
		t.Fatalf("load %v at ρ = 1, want the admission limit %d", f.Load(), lms.AdmissionLimit)
	}
	f.ScaleTo(5) // clamps to max
	if f.Desired() != 3 {
		t.Fatalf("desired %d, want the cap 3", f.Desired())
	}
	eng.Run(2 * deploy.PublicBoot())
	if got, want := f.Load(), (1.0/3)/(1-1.0/3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("load %v with three live servers, want ρ/(1−ρ) = %v", got, want)
	}
	f.ScaleTo(2)
	if len(f.ready) != 2 || f.ready[0] != deploy.PublicBoot() {
		t.Fatalf("scale-in kept %v, want the oldest server first", f.ready)
	}

	cfg := Config{Kind: deploy.Public, Students: 500, Duration: 2 * time.Hour}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for to := fluidTick; to <= cfg.Duration; to += fluidTick {
		m.integrate(0, to)
		if got := m.fleet.Arrivals(); got < last {
			t.Fatalf("arrivals fell from %d to %d at %v", last, got, to)
		} else {
			last = got
		}
	}
	if last == 0 {
		t.Fatal("the fleet metered no arrivals")
	}
}

// A diurnal hour or calendar week whose multiplier is not a finite
// number >= 0 fails the run at every fidelity, with an error naming the
// hour or the week. The thinning sampler rejects every candidate whose
// rate is NaN, so a NaN hour once dropped the demand around it from a
// DES run that still balanced its ledger (500 students, 6 h flat day:
// 99,045 arrivals where 148,802 were offered), and a NaN week dropped
// all of it.
func TestNonFiniteMultipliersFailTheRun(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		hours := [24]float64{}
		for i := range hours {
			hours[i] = 1
		}
		hours[3] = bad
		day := Config{
			Seed:              1,
			Kind:              deploy.Public,
			Students:          500,
			ReqPerStudentHour: 50,
			Duration:          6 * time.Hour,
			Diurnal:           workload.NewDiurnalProfile(hours),
		}
		week := day
		week.Diurnal = workload.FlatDiurnal()
		week.Calendar = workload.NewCalendar([]workload.Week{{Kind: workload.Teaching, Mult: bad}})
		for _, tc := range []struct {
			cfg  Config
			name string
		}{{day, "hour 3"}, {week, "week 0"}} {
			for _, f := range []Fidelity{FidelityDES, FidelityFluid, FidelityAuto} {
				res, err := Run(at(tc.cfg, f))
				if err == nil {
					t.Errorf("%s = %v, Fidelity %d: no error, %d arrivals, %d served", tc.name, bad, f, res.Arrivals, res.Served)
				} else if !strings.Contains(err.Error(), tc.name) {
					t.Errorf("%s = %v, Fidelity %d: error %q does not name %s", tc.name, bad, f, err, tc.name)
				}
			}
		}
	}
}

// A fluid ledger whose accrued mass is not a finite number >= 0 is an
// error, not a Result: rounded into the ledger, a NaN or infinite
// offered mass reads as 2^63 requests arrived and served, which Audit
// balances. The unit cases put each bad value into each of the model's
// accrued totals.
func TestFluidLedgerRejectsNonFiniteMass(t *testing.T) {
	cfg := Config{
		Seed:              1,
		Kind:              deploy.Public,
		Students:          500,
		ReqPerStudentHour: 50,
		Duration:          6 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		EnableCDN:         true,
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	totals := []struct {
		name string
		at   func(*fluidModel) *float64
	}{
		{"offered", func(m *fluidModel) *float64 { return &m.offered }},
		{"egress bytes", func(m *fluidModel) *float64 { return &m.egressBytes }},
		{"CDN bytes", func(m *fluidModel) *float64 { return &m.cdnBytes }},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, total := range totals {
			m, err := newFluidModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.integrate(0, cfg.Duration)
			*total.at(m) = bad
			if res, err := m.finish(); err == nil {
				t.Errorf("%s = %v: finish returned %d arrivals, %d served, %v egress GB, %v CDN GB",
					total.name, bad, res.Arrivals, res.Served, res.EgressGB, res.CDNGB)
			}
		}
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.integrate(0, cfg.Duration)
	if _, err := m.finish(); err != nil {
		t.Fatalf("a finite ledger: %v", err)
	}
}
