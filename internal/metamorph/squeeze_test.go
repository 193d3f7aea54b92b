package metamorph

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// TestFamilySqueezeExact: on six cases of every family, the generator's
// arrival stream, whose sampler settles most candidates from its rate
// cells, emits exactly the arrivals, classes included, of a sampler
// that evaluates the rate at every candidate (the trivial bracket).
// Each case is compared over its first 20,000 arrivals from the start
// of the run and from 5 minutes before each crowd, storm ramp, storm
// deadline and join spike.
func TestFamilySqueezeExact(t *testing.T) {
	noBracket := func(sim.Time) (float64, float64) { return 0, math.Inf(1) }
	for _, f := range Families() {
		for i := 0; i < 6; i++ {
			c := f.Case(CaseSeed(1, f.Name, i))
			g, err := workload.NewGenerator(workloadConfig(c.Cfg))
			if err != nil {
				t.Fatalf("%s case %d: %v", f.Name, i, err)
			}
			horizon := c.Cfg.Duration
			starts := []time.Duration{0}
			for _, cr := range c.Cfg.Crowds {
				starts = append(starts, cr.Start)
			}
			for _, s := range c.Cfg.Storms {
				starts = append(starts, s.Deadline-s.Ramp, s.Deadline)
			}
			for _, j := range c.Cfg.Joins {
				starts = append(starts, j.Start)
			}
			for _, start := range starts {
				start = max(start-5*time.Minute, 0)
				rng := sim.NewRNG(c.Cfg.Seed)
				got := g.Stream(rng, start)
				want := sim.NewNHPPEnvelope(rng.Stream("arrivals"), g.Rate, g.Envelope(), noBracket, start)
				classes := rng.Stream("classes")
				for n := 0; n < 20000; n++ {
					a, ok := got.Next(horizon)
					at, okWant := want.Next(horizon)
					if ok != okWant || (ok && a != workload.Arrival{At: at, Class: g.MixAt(at).Sample(classes)}) {
						t.Fatalf("%s case %d from %v: arrival %d = (%+v, %v), unsqueezed (%v, %v)",
							f.Name, i, start, n, a, ok, at, okWant)
					}
					if !ok {
						break
					}
				}
			}
		}
	}
}
