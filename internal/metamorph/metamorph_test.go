package metamorph

import (
	"strings"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// TestFamiliesRegistry: every family has a name, a description, at
// least one tag, and a generator; names are unique; FindFamily round-
// trips and rejects unknowns.
func TestFamiliesRegistry(t *testing.T) {
	fams := Families()
	if len(fams) < 4 {
		t.Fatalf("Families() = %d entries, want >= 4", len(fams))
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if f.Name == "" || f.Desc == "" || f.gen == nil {
			t.Errorf("family %+v missing name, description or generator", f)
		}
		if len(f.Tags) == 0 {
			t.Errorf("family %s has no tags", f.Name)
		}
		for _, tag := range f.Tags {
			if !strings.HasPrefix(tag, "@") {
				t.Errorf("family %s tag %q does not start with @", f.Name, tag)
			}
		}
		if seen[f.Name] {
			t.Errorf("duplicate family name %s", f.Name)
		}
		seen[f.Name] = true

		got, err := FindFamily(f.Name)
		if err != nil || got.Name != f.Name {
			t.Errorf("FindFamily(%s) = %v, %v", f.Name, got.Name, err)
		}
	}
	if _, err := FindFamily("nope"); err == nil {
		t.Error("FindFamily(nope) did not error")
	}
}

// TestCaseDeterminism: Family.Case is a pure function of the case seed —
// same seed, same config; distinct seeds, distinct configs (on a
// population-sized sample).
func TestCaseDeterminism(t *testing.T) {
	for _, f := range Families() {
		seed := CaseSeed(1, f.Name, 0)
		a, b := f.Case(seed), f.Case(seed)
		da, db := strings.Join(DescribeConfig(a.Cfg), "\n"), strings.Join(DescribeConfig(b.Cfg), "\n")
		if da != db {
			t.Errorf("%s: same case seed produced different configs:\n%s\nvs\n%s", f.Name, da, db)
		}
		if a.Cfg.Seed == 0 {
			t.Errorf("%s: generated config has zero scenario seed", f.Name)
		}
		if a.Cfg.Seed == seed {
			t.Errorf("%s: scenario seed equals the case seed — derivations must decorrelate", f.Name)
		}
		other := f.Case(CaseSeed(1, f.Name, 1))
		if strings.Join(DescribeConfig(other.Cfg), "\n") == da && other.Cfg.Seed == a.Cfg.Seed {
			t.Errorf("%s: distinct case seeds produced identical cases", f.Name)
		}
	}
}

// TestCaseSeedDerivation: case seeds decorrelate across run seeds,
// families, and indices.
func TestCaseSeedDerivation(t *testing.T) {
	seen := map[uint64]string{}
	for _, runSeed := range []uint64{1, 2} {
		for _, fam := range []string{"campus", "mooc", "storm", "chaos"} {
			for i := 0; i < 5; i++ {
				s := CaseSeed(runSeed, fam, i)
				if prev, dup := seen[s]; dup {
					t.Fatalf("CaseSeed collision: (%d,%s,%d) == %s", runSeed, fam, i, prev)
				}
				seen[s] = fam
			}
		}
	}
}

// TestGeneratedConfigsAreValid: every family's configs pass the
// workload generator's and the scenario runner's validation across a
// spread of seeds. Every config is validated by a fluid run; DES-scale
// ones must build a generator cleanly.
func TestGeneratedConfigsAreValid(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for _, f := range Families() {
		for i := 0; i < n; i++ {
			c := f.Case(CaseSeed(7, f.Name, i))
			if _, err := workload.NewGenerator(workloadConfig(c.Cfg)); err != nil {
				t.Errorf("%s case %d: invalid workload config: %v\n%s",
					f.Name, i, err, strings.Join(DescribeConfig(c.Cfg), "\n"))
			}
			if c.Cfg.Kind != deploy.Desktop {
				if _, err := scenario.Run(atFidelity(c.Cfg, scenario.FidelityFluid)); err != nil {
					t.Errorf("%s case %d: fluid run rejected config: %v", f.Name, i, err)
				}
			}
		}
	}
}

// TestDescribeConfigCompact: generated configs describe in few lines
// (the repro budget) and carry the load shape.
func TestDescribeConfigCompact(t *testing.T) {
	cfg := scenario.Config{
		Kind:     deploy.Private,
		Students: 500,
		Duration: 2 * time.Hour,
		Storms: []workload.DeadlineStorm{
			{Deadline: 90 * time.Minute, Ramp: time.Hour, PeakMult: 6},
		},
	}
	lines := DescribeConfig(cfg)
	if len(lines) < 2 || len(lines) > 5 {
		t.Fatalf("DescribeConfig = %d lines, want 2..5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"students=500", "storm", "peak=6x"} {
		if !strings.Contains(joined, want) {
			t.Errorf("DescribeConfig missing %q:\n%s", want, joined)
		}
	}
}

// TestReproCommand pins the repro line format the nightly lane prints.
func TestReproCommand(t *testing.T) {
	got := ReproCommand("storm", 0xbeef)
	want := "go run ./cmd/elfuzz -family storm -case-seed 0xbeef -minimize"
	if got != want {
		t.Fatalf("ReproCommand = %q, want %q", got, want)
	}
}

// TestFingerprintDistinguishes: fingerprints are stable for a repeated
// run and differ across seeds.
func TestFingerprintDistinguishes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs request-level scenarios")
	}
	cfg := scenario.Config{Seed: 11, Students: 150, Duration: time.Hour, Diurnal: workload.FlatDiurnal()}
	a, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("same config+seed produced different fingerprints")
	}
	cfg.Seed = 12
	c, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different seeds produced identical fingerprints")
	}
	// Each ledger line names its own field.
	for field, mutate := range map[string]func(*scenario.Result){
		"arrivals=":      func(r *scenario.Result) { r.Arrivals++ },
		"inFlight=":      func(r *scenario.Result) { r.InFlight++ },
		"carriedIn=":     func(r *scenario.Result) { r.CarriedIn++ },
		"fluidSimHours=": func(r *scenario.Result) { r.FluidSimHours++ },
		"desSimHours=":   func(r *scenario.Result) { r.DESSimHours++ },
	} {
		m := *a
		mutate(&m)
		if d := diffLine(Fingerprint(a), Fingerprint(&m)); !strings.Contains(d, field) {
			t.Errorf("%s changed, fingerprint diff %q does not name it", field, d)
		}
	}
}
