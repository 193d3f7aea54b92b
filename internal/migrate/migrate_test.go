package migrate

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/sim"
)

func TestPlanScalesWithLockin(t *testing.T) {
	base := LockinProfile{DataBytes: 500e9}

	var prev float64 = -1
	for _, idx := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		p := base
		p.Index = idx
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalUSD() < prev {
			t.Fatalf("migration cost not monotone in lock-in at %v", idx)
		}
		prev = plan.TotalUSD()
	}
}

func TestPlanComponents(t *testing.T) {
	plan, err := NewPlan(LockinProfile{Index: 0.7, DataBytes: 100e9})
	if err != nil {
		t.Fatal(err)
	}
	// 0.7 of the 12 components, rounded up.
	if plan.ComponentsToPort != 9 {
		t.Fatalf("ComponentsToPort = %d, want 9", plan.ComponentsToPort)
	}
	// 9 ports * 12000 * 1.35 testing.
	want := 9 * 12000 * 1.35
	if math.Abs(plan.ReengineerUSD-want) > 1e-6 {
		t.Fatalf("ReengineerUSD = %v, want %v", plan.ReengineerUSD, want)
	}
	// 100 GB * $0.12.
	if math.Abs(plan.EgressUSD-12.0) > 1e-9 {
		t.Fatalf("EgressUSD = %v, want 12", plan.EgressUSD)
	}
	// 100e9 bytes * 8 / 500e6 bps = 1600 s.
	if plan.TransferTime != 1600*time.Second {
		t.Fatalf("TransferTime = %v, want 1600s", plan.TransferTime)
	}
	if plan.Downtime != 8*time.Hour {
		t.Fatalf("Downtime = %v", plan.Downtime)
	}
}

func TestPlanCalendarTimeOverlapsTransferAndEngineering(t *testing.T) {
	p := Plan{
		TransferTime:    10 * time.Hour,
		EngineeringTime: 40 * time.Hour,
		Downtime:        2 * time.Hour,
	}
	if p.CalendarTime() != 42*time.Hour {
		t.Fatalf("CalendarTime = %v, want 42h (max(10,40)+2)", p.CalendarTime())
	}
}

func TestPaperOrderingPublicWorstHybridBetter(t *testing.T) {
	// §IV: public accumulates the most lock-in; hybrid decreases platform
	// dependence; private barely locks in. Same data volume for fairness.
	costFor := func(k deploy.Kind) float64 {
		plan, err := NewPlan(LockinProfile{
			Index:     k.DefaultLockinIndex(),
			DataBytes: 1e12,
		})
		if err != nil {
			t.Fatal(err)
		}
		return plan.TotalUSD()
	}
	pub, hyb, priv := costFor(deploy.Public), costFor(deploy.Hybrid), costFor(deploy.Private)
	if !(pub > hyb && hyb > priv) {
		t.Fatalf("migration cost ordering wrong: public=%v hybrid=%v private=%v", pub, hyb, priv)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []LockinProfile{
		{Index: -0.1},
		{Index: 1.1},
		{Index: 0.5, DataBytes: -1},
	}
	for i, p := range bad {
		if _, err := NewPlan(p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestExecuteFiresAtCalendarTime(t *testing.T) {
	eng := sim.NewEngine(1)
	plan, err := NewPlan(LockinProfile{Index: 0.5, DataBytes: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	fired := false
	finish := Execute(eng, plan, func(r Result) { res = r; fired = true })
	eng.Run(0)
	if !fired {
		t.Fatal("done never fired")
	}
	if res.FinishedAt != finish {
		t.Fatalf("FinishedAt = %v, want %v", res.FinishedAt, finish)
	}
	if res.Duration() != plan.CalendarTime() {
		t.Fatalf("Duration = %v, want %v", res.Duration(), plan.CalendarTime())
	}
}

func TestExecuteNilEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Execute(nil, Plan{}, nil)
}

func TestZeroLockinStillPaysEgressAndCutover(t *testing.T) {
	plan, err := NewPlan(LockinProfile{Index: 0, DataBytes: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ReengineerUSD != 0 {
		t.Fatal("zero lock-in should need no porting")
	}
	if plan.EgressUSD <= 0 {
		t.Fatal("data still costs egress")
	}
	if plan.Downtime <= 0 {
		t.Fatal("cutover freeze still applies")
	}
}
