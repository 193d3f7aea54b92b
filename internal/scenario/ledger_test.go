package scenario_test

import (
	"reflect"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metamorph"
	"elearncloud/internal/scenario"
)

// A config with no storms, joins or crowds plans zero DES windows, and
// an auto run of it is then the fluid run: the same path with no
// windows, equal on every field, fingerprint included. The fluid
// stretch reports its rounded offered mass as both arrived and served.
func TestHybridEmptyPlanMatchesFluidExactly(t *testing.T) {
	for _, kind := range []deploy.Kind{deploy.Public, deploy.Hybrid, deploy.Private} {
		cfg := scenario.Config{
			Seed:              9,
			Kind:              kind,
			Students:          1200,
			ReqPerStudentHour: 40,
			Duration:          12 * time.Hour,
			EnableCDN:         kind != deploy.Private,
		}
		plan, err := scenario.PlanFidelity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Windows) != 0 {
			t.Fatalf("%v: quiet config planned %d DES windows", kind, len(plan.Windows))
		}
		cfg.Fidelity = scenario.FidelityAuto
		h, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fidelity = scenario.FidelityFluid
		f, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hf, ff := metamorph.Fingerprint(h), metamorph.Fingerprint(f); hf != ff {
			t.Errorf("%v: fingerprints differ:\nauto:\n%s\nfluid:\n%s", kind, hf, ff)
		}
		if !reflect.DeepEqual(h, f) {
			t.Errorf("%v: auto and fluid results differ outside the fingerprint", kind)
		}
		if f.Served == 0 || f.Arrivals != f.Served || f.InFlight != 0 {
			t.Errorf("%v: fluid ledger %d arrivals, %d served, %d in flight; want the offered mass as both",
				kind, f.Arrivals, f.Served, f.InFlight)
		}
		if h.Events != 0 || h.DESSimHours != 0 {
			t.Errorf("%v: empty plan ran DES anyway: %d events, %.2f DES hours", kind, h.Events, h.DESSimHours)
		}
	}
}
