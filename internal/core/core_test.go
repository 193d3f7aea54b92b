package core

import (
	"strings"
	"testing"
	"time"

	"elearncloud/internal/deploy"
)

// measured caches the expensive measurement pass across tests.
var measured *Inputs

func getInputs(t *testing.T) *Inputs {
	t.Helper()
	if measured == nil {
		in, err := MeasureInputs(MeasureConfig{Seed: 3, Students: 2000, DESStudents: 600})
		if err != nil {
			t.Fatal(err)
		}
		measured = in
	}
	return measured
}

func TestRequirementStrings(t *testing.T) {
	want := map[Requirement]string{
		Cost: "cost", Performance: "performance", Scalability: "scalability",
		Security: "security", Portability: "portability", Manageability: "manageability",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if Requirement(99).String() != "Requirement(99)" {
		t.Error("unknown requirement string wrong")
	}
	if len(Requirements()) != 6 {
		t.Error("Requirements() incomplete")
	}
}

func TestMeasureInputsCoversAllModelsAndMetrics(t *testing.T) {
	in := getInputs(t)
	for _, k := range deploy.Kinds() {
		for name, m := range map[string]map[deploy.Kind]float64{
			"cost":    in.CostPerStudentMonth,
			"p95":     in.P95LatencySec,
			"examP99": in.ExamP99Sec,
			"examErr": in.ExamErrorRate,
			"risk":    in.AnnualSensitiveRisk,
			"migrate": in.MigrationUSD,
			"ops":     in.OpsBurdenUSDMonth,
		} {
			v, ok := m[k]
			if !ok {
				t.Fatalf("%s missing for %v", name, k)
			}
			if v < 0 {
				t.Fatalf("%s negative for %v: %v", name, k, v)
			}
		}
	}
}

// The paper's qualitative orderings (§IV) must hold in the measurements.
func TestMeasurementsMatchPaperOrderings(t *testing.T) {
	in := getInputs(t)

	// §IV.B: private is the expensive model *below* the Figure 3
	// crossover. At small scale public must win cost; by 2000 students
	// the 2013 egress pricing has flipped the ordering (scale economies).
	small, err := MeasureInputs(MeasureConfig{Seed: 3, Students: 300, DESStudents: 300})
	if err != nil {
		t.Fatal(err)
	}
	if small.CostPerStudentMonth[deploy.Private] <= small.CostPerStudentMonth[deploy.Public] {
		t.Errorf("small scale: private cost %v should exceed public %v",
			small.CostPerStudentMonth[deploy.Private], small.CostPerStudentMonth[deploy.Public])
	}
	if in.CostPerStudentMonth[deploy.Private] >= in.CostPerStudentMonth[deploy.Public] {
		t.Errorf("college scale: private cost %v should undercut public %v past the crossover",
			in.CostPerStudentMonth[deploy.Private], in.CostPerStudentMonth[deploy.Public])
	}
	// §IV.A: public has the highest security exposure; §IV.C hybrid
	// increases security over public.
	if !(in.AnnualSensitiveRisk[deploy.Public] > in.AnnualSensitiveRisk[deploy.Hybrid]) {
		t.Errorf("risk: public %v should exceed hybrid %v",
			in.AnnualSensitiveRisk[deploy.Public], in.AnnualSensitiveRisk[deploy.Hybrid])
	}
	// §III risk 3 / §IV.A: leaving the public cloud is the most
	// expensive; hybrid decreases platform dependence.
	if !(in.MigrationUSD[deploy.Public] > in.MigrationUSD[deploy.Hybrid] &&
		in.MigrationUSD[deploy.Hybrid] > in.MigrationUSD[deploy.Private]) {
		t.Errorf("migration ordering wrong: %v", in.MigrationUSD)
	}
	// §IV.C: hybrid carries the largest governance burden; public the
	// smallest.
	if !(in.OpsBurdenUSDMonth[deploy.Hybrid] > in.OpsBurdenUSDMonth[deploy.Private]) {
		t.Errorf("ops burden: hybrid %v should exceed private %v",
			in.OpsBurdenUSDMonth[deploy.Hybrid], in.OpsBurdenUSDMonth[deploy.Private])
	}
	if !(in.OpsBurdenUSDMonth[deploy.Public] < in.OpsBurdenUSDMonth[deploy.Private]) {
		t.Errorf("ops burden: public %v should undercut private %v",
			in.OpsBurdenUSDMonth[deploy.Public], in.OpsBurdenUSDMonth[deploy.Private])
	}
}

func TestBuildScorecardNormalization(t *testing.T) {
	in := getInputs(t)
	sc, err := BuildScorecard(in)
	if err != nil {
		t.Fatal(err)
	}
	metricFor := map[Requirement]map[deploy.Kind]float64{
		Cost:          in.CostPerStudentMonth,
		Performance:   in.P95LatencySec,
		Security:      in.AnnualSensitiveRisk,
		Portability:   in.MigrationUSD,
		Manageability: in.OpsBurdenUSDMonth,
	}
	for _, req := range Requirements() {
		sawBest := false
		for _, k := range deploy.Kinds() {
			s := sc.Score(k, req)
			if s <= 0 || s > 10 {
				t.Fatalf("score %v/%v = %v outside (0,10]", k, req, s)
			}
			if s == 10 {
				sawBest = true
			}
		}
		if !sawBest {
			t.Fatalf("requirement %v has no best-scoring model", req)
		}
		// Scores are antitone in the raw metric: cheaper/safer/faster
		// models never score lower.
		vals, ok := metricFor[req]
		if !ok {
			continue
		}
		for _, a := range deploy.Kinds() {
			for _, b := range deploy.Kinds() {
				if vals[a] < vals[b] && sc.Score(a, req) < sc.Score(b, req) {
					t.Fatalf("%v: %v (raw %v) scores below %v (raw %v)",
						req, a, vals[a], b, vals[b])
				}
			}
		}
	}
}

func TestScorecardPaperWinners(t *testing.T) {
	sc, err := BuildScorecard(getInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	// §IV.A: public is the easiest model to run.
	if sc.Score(deploy.Public, Manageability) <= sc.Score(deploy.Hybrid, Manageability) {
		t.Error("public should beat hybrid on manageability")
	}
	// §IV.B: private wins security.
	if sc.Score(deploy.Private, Security) <= sc.Score(deploy.Public, Security) {
		t.Error("private should beat public on security")
	}
	// §IV.C: hybrid beats public on portability.
	if sc.Score(deploy.Hybrid, Portability) <= sc.Score(deploy.Public, Portability) {
		t.Error("hybrid should beat public on portability")
	}
}

func TestScorecardTableRendering(t *testing.T) {
	sc, err := BuildScorecard(getInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	tbl := sc.Table()
	if tbl.NumRows() != len(Requirements()) {
		t.Fatalf("table rows = %d", tbl.NumRows())
	}
	s := tbl.String()
	for _, want := range []string{"cost", "security", "public", "hybrid"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

func TestRecommendProfiles(t *testing.T) {
	sc, err := BuildScorecard(getInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Profile{RuralSchool, MidCollege, NationalPlatform} {
		recs, err := sc.Recommend(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 {
			t.Fatalf("%s: %d recommendations", p.Name, len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Total < recs[i].Total {
				t.Fatalf("%s: ranking not sorted", p.Name)
			}
		}
		if out := Explain(p, recs); !strings.Contains(out, p.Name) {
			t.Fatalf("Explain output wrong: %q", out)
		}
	}
	// A cash-strapped school with no IT staff should not be told to run
	// its own datacenter — measured at ITS scale, not the college's.
	smallIn, err := MeasureInputs(MeasureConfig{Seed: 3, Students: RuralSchool.Students, DESStudents: 300})
	if err != nil {
		t.Fatal(err)
	}
	smallSc, err := BuildScorecard(smallIn)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := smallSc.Recommend(RuralSchool)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Kind == deploy.Private {
		t.Error("rural school recommended a private cloud")
	}
	// A sovereignty-first national platform should not be sent to the
	// public cloud (college-scale scorecard is already conservative: at
	// national scale public only gets worse on cost).
	recs, err = sc.Recommend(NationalPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Kind == deploy.Public {
		t.Error("national platform recommended public cloud")
	}
}

func TestRecommendValidation(t *testing.T) {
	sc, err := BuildScorecard(getInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Recommend(Profile{Name: "empty"}); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := sc.Recommend(Profile{Name: "neg", Weights: map[Requirement]float64{Cost: -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestBuildScorecardNilInputs(t *testing.T) {
	if _, err := BuildScorecard(nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func TestMeritModels(t *testing.T) {
	// §III.2: cloud sessions start much faster.
	if SessionStartTime(deploy.Public) >= SessionStartTime(deploy.Desktop) {
		t.Error("cloud session start should beat desktop")
	}
	if SessionStartTime(deploy.Desktop) != 95*time.Second {
		t.Errorf("desktop start = %v", SessionStartTime(deploy.Desktop))
	}
	// §III.3: updates propagate orders of magnitude faster.
	cloudProp := UpdatePropagation(deploy.Public, 2000, 2)
	deskProp := UpdatePropagation(deploy.Desktop, 2000, 2)
	if cloudProp*10 >= deskProp {
		t.Errorf("update propagation: cloud %v should be <<10x desktop %v", cloudProp, deskProp)
	}
	// Zero technicians is repaired to one.
	if UpdatePropagation(deploy.Desktop, 100, 0) <= 0 {
		t.Error("technician floor broken")
	}
	// §III.4: crashes lose less work in the cloud.
	if ExpectedCrashLoss(deploy.Public) >= ExpectedCrashLoss(deploy.Desktop) {
		t.Error("cloud crash loss should be below desktop")
	}
	// §III.5: device independence.
	if DeviceContinuity(deploy.Hybrid) != 1.0 || DeviceContinuity(deploy.Desktop) >= 1.0 {
		t.Error("device continuity wrong")
	}
}
