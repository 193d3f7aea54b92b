package scenario

import (
	"testing"

	"elearncloud/internal/deploy"
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
