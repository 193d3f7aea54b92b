package security

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

const simYears = 40 // long horizon to tighten stochastic estimates

func runThreat(t *testing.T, cfg Config, place lms.Placement) *ThreatModel {
	t.Helper()
	eng := sim.NewEngine(77)
	m, err := NewThreatModel(eng, eng.Stream("threat"), cfg, lms.NewInventory(20, 500, place))
	if err != nil {
		t.Fatal(err)
	}
	stop := m.Start()
	defer stop()
	eng.Run(simYears * 365 * 24 * time.Hour)
	return m
}

func TestBreachRateMatchesAnalytic(t *testing.T) {
	cfg := DefaultConfig()
	m := runThreat(t, cfg, lms.AllAt(lms.OnPublic))
	months := float64(simYears * 12)
	want := cfg.AttackRatePerMonth * cfg.PublicBreachProb * months // every asset is public
	got := float64(m.Breaches())
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("breaches = %v, want ~%v", got, want)
	}
	if m.DataLossEvents() > 0 {
		t.Fatal("all-public placement suffered on-prem data loss")
	}
}

func TestPublicPlacementBreachesMoreThanPrivate(t *testing.T) {
	cfg := DefaultConfig()
	pub := runThreat(t, cfg, lms.AllAt(lms.OnPublic))
	priv := runThreat(t, cfg, lms.AllAt(lms.OnPrivate))
	if pub.Breaches() <= priv.Breaches() {
		t.Fatalf("public breaches (%d) should exceed private (%d) — paper §IV.A",
			pub.Breaches(), priv.Breaches())
	}
	// But only private placements lose data to physical damage.
	if priv.DataLossEvents() == 0 {
		t.Fatal("private placement never suffered physical damage in 40y at MTBF 15y")
	}
	if priv.BytesLost() <= 0 {
		t.Fatal("physical damage lost no bytes without backup")
	}
}

func TestHybridPinningLimitsSensitiveExposure(t *testing.T) {
	cfg := DefaultConfig()
	allPub := runThreat(t, cfg, lms.AllAt(lms.OnPublic))
	pinned := runThreat(t, cfg, lms.Placement{Sensitive: lms.OnPrivate, Other: lms.OnPublic})
	// With sensitive assets pinned private, public breaches expose zero
	// sensitive assets; exposures come only from rarer private breaches.
	if pinned.SensitiveExposures() >= allPub.SensitiveExposures() {
		t.Fatalf("pinned exposures (%d) should be far below all-public (%d)",
			pinned.SensitiveExposures(), allPub.SensitiveExposures())
	}
}

func TestOffsiteBackupPreventsByteLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OffsiteBackup = true
	m := runThreat(t, cfg, lms.AllAt(lms.OnPrivate))
	if m.BytesLost() != 0 {
		t.Fatalf("BytesLost = %v with offsite backup", m.BytesLost())
	}
	if m.DataLossEvents() == 0 {
		t.Fatal("incidents should still be recorded with backup")
	}
}

func TestDataLossRateMatchesAnalytic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AttackRatePerMonth = 0 // isolate the damage process
	m := runThreat(t, cfg, lms.AllAt(lms.OnPrivate))
	want := simYears / cfg.PhysicalMTBFYears
	got := float64(m.DataLossEvents())
	if math.Abs(got-want)/want > 0.8 { // few events: loose bound
		t.Fatalf("data-loss events = %v, want ~%v", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{AttackRatePerMonth: -1},
		{PublicBreachProb: 2},
		{PrivateBreachProb: -0.1},
		{PhysicalMTBFYears: -1},
		{DamageLossFraction: 1.5},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewThreatModelNilArgs(t *testing.T) {
	eng := sim.NewEngine(1)
	assets := lms.NewInventory(1, 1, lms.AllAt(lms.OnPrivate))
	if _, err := NewThreatModel(nil, eng.Stream("x"), DefaultConfig(), assets); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewThreatModel(eng, nil, DefaultConfig(), assets); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestConfigForDesktopIsRiskier(t *testing.T) {
	d := ConfigFor(deploy.Desktop)
	c := ConfigFor(deploy.Public)
	if d.PrivateBreachProb <= c.PrivateBreachProb {
		t.Fatal("desktop local exposure should exceed datacenter")
	}
	if d.PhysicalMTBFYears >= c.PhysicalMTBFYears {
		t.Fatal("lab PCs should fail more often than a server room")
	}
}

func TestStopHaltsProcesses(t *testing.T) {
	eng := sim.NewEngine(5)
	assets := lms.NewInventory(5, 50, lms.AllAt(lms.OnPublic))
	m, err := NewThreatModel(eng, eng.Stream("threat"), DefaultConfig(), assets)
	if err != nil {
		t.Fatal(err)
	}
	stop := m.Start()
	stop()
	stop() // double-stop is safe
	eng.Run(365 * 24 * time.Hour)
	if len(m.incidents) != 0 {
		t.Fatalf("stopped model still produced %d incidents", len(m.incidents))
	}
}

func TestIncidentKindString(t *testing.T) {
	if Breach.String() != "breach" || DataLoss.String() != "data-loss" {
		t.Fatal("kind strings wrong")
	}
	if IncidentKind(9).String() != "IncidentKind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}
