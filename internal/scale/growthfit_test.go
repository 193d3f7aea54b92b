package scale

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// nhppRates Poisson-samples an arrival-count series from the growth
// curve: rate(t) = curve.At(t)·perStudentHour/3600, binned per minute,
// observed as counts/60s — exactly what the fitter sees from a
// Target's arrival meter. Deterministic per seed via the repo's splitmix64 RNG.
func nhppRates(seed uint64, g *workload.Growth, perStudentHour float64, bins int) (times, rates []float64) {
	rng := sim.NewRNG(sim.SeedFor(seed, "growthfit/nhpp"))
	for i := 0; i < bins; i++ {
		t := float64(i+1) * 60
		lambda := g.At(time.Duration(t)*time.Second) * perStudentHour / 3600
		n := poisson(rng, lambda*60)
		times = append(times, t)
		rates = append(rates, float64(n)/60)
	}
	return times, rates
}

// poisson draws a Poisson(lambda) count: Knuth's product method below
// lambda 30, a normal approximation with continuity correction above.
func poisson(rng *sim.RNG, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := rng.Norm(lambda, math.Sqrt(lambda))
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// propertySeeds is the seed sweep for the recovery properties: 20
// distinct NHPP sample paths per shape.
func propertySeeds() []uint64 {
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// TestFitRecoversLogisticParams: across 20 NHPP sample paths of a
// logistic enrollment curve (500→4000 students, midpoint 40m, observed
// for 80m at 50 req/student-h), the fitter must pick the logistic
// shape and recover the plateau rate within 15% and the midpoint
// within 15% on every path. The bins hold thousands of arrivals, so
// Poisson noise is ~2% — the bound is dominated by the plateau grid's
// resolution, not the sampling.
func TestFitRecoversLogisticParams(t *testing.T) {
	curve := workload.LogisticGrowth(500, 4000, 40*time.Minute)
	const perStudentHour = 50
	trueFinal := 4000 * perStudentHour / 3600.0
	trueMid := (40 * time.Minute).Seconds()

	for _, seed := range propertySeeds() {
		times, rates := nhppRates(seed, curve, perStudentHour, 80)
		fit := FitGrowth(times, rates)
		if fit.Shape != FitLogistic {
			t.Fatalf("seed %d: shape = %v, want logistic (fit %v)", seed, fit.Shape, fit)
		}
		if relErr := math.Abs(fit.Final-trueFinal) / trueFinal; relErr > 0.15 {
			t.Errorf("seed %d: plateau rate %.2f vs true %.2f (rel err %.3f > 0.15)",
				seed, fit.Final, trueFinal, relErr)
		}
		if relErr := math.Abs(fit.Midpoint.Seconds()-trueMid) / trueMid; relErr > 0.15 {
			t.Errorf("seed %d: midpoint %v vs true 40m (rel err %.3f > 0.15)",
				seed, fit.Midpoint, relErr)
		}
		if !(fit.Residual < 0.15) {
			t.Errorf("seed %d: residual %.3f not under the stability threshold", seed, fit.Residual)
		}
	}
}

// TestFitRecoversLinearParams: across 20 NHPP sample paths of a cohort
// ramp (1000→8000 students over 2h, observed for 90m), the recovered
// curve must track the true rate within 10% at every probe point. The
// shape itself is allowed to come out logistic on some paths — a
// logistic with a distant plateau is locally a line, and the extra
// parameter can win the residual by luck — but when the linear shape
// is chosen its slope must be within 10% of the truth, and the linear
// choice must win on at least 15 of the 20 paths.
func TestFitRecoversLinearParams(t *testing.T) {
	curve := workload.LinearGrowth(1000, 8000, 2*time.Hour)
	const perStudentHour = 50
	trueSlope := (8000 - 1000) * perStudentHour / 3600.0 / (2 * time.Hour).Seconds()

	linearWins := 0
	for _, seed := range propertySeeds() {
		times, rates := nhppRates(seed, curve, perStudentHour, 90)
		fit := FitGrowth(times, rates)
		if fit.Shape == FitLinear {
			linearWins++
			if relErr := math.Abs(fit.Slope-trueSlope) / trueSlope; relErr > 0.10 {
				t.Errorf("seed %d: slope %.5f vs true %.5f (rel err %.3f > 0.10)",
					seed, fit.Slope, trueSlope, relErr)
			}
		}
		for _, probe := range []float64{10 * 60, 45 * 60, 85 * 60} {
			trueRate := curve.At(time.Duration(probe)*time.Second) * perStudentHour / 3600
			if relErr := math.Abs(fit.Rate(probe)-trueRate) / trueRate; relErr > 0.10 {
				t.Errorf("seed %d: rate(%.0fs) = %.2f vs true %.2f (rel err %.3f > 0.10, shape %v)",
					seed, probe, fit.Rate(probe), trueRate, relErr, fit.Shape)
			}
		}
	}
	if linearWins < 15 {
		t.Errorf("linear shape chosen on %d/20 paths, want >= 15", linearWins)
	}
}

// TestFitMidpointConvergesBeforeHalfCapacity pins the property the
// scaler's lead time depends on: feeding the fitter its observations
// online (45-sample window, the scaler's defaults), the logistic fit
// stabilizes with a midpoint estimate within 20% of the truth before
// the curve actually crosses half capacity — i.e. the cliff is
// projected while there is still time to boot for it.
func TestFitMidpointConvergesBeforeHalfCapacity(t *testing.T) {
	curve := workload.LogisticGrowth(500, 4000, 40*time.Minute)
	const perStudentHour = 50
	trueMid := (40 * time.Minute).Seconds()

	for _, seed := range propertySeeds() {
		times, rates := nhppRates(seed, curve, perStudentHour, 80)
		converged := math.Inf(1)
		for i := 10; i <= len(times); i++ {
			lo := 0
			if i > 45 {
				lo = i - 45
			}
			fit := FitGrowth(times[lo:i], rates[lo:i])
			if fit.Shape != FitLogistic || fit.Residual > 0.15 {
				continue
			}
			if math.Abs(fit.Midpoint.Seconds()-trueMid)/trueMid <= 0.20 {
				converged = times[i-1]
				break
			}
		}
		if converged >= trueMid {
			t.Errorf("seed %d: midpoint estimate converged at t=%.0fs, not before the true crossing at %.0fs",
				seed, converged, trueMid)
		}
	}
}

// erraticScript is a demand sequence no growth shape describes: bursts
// alternating with idle, keeping the fit's relative residual far above
// the stability threshold. Each entry is one minute's load per server;
// the metered arrivals follow the same burst pattern.
func erraticScript() []float64 {
	rng := sim.NewRNG(sim.SeedFor(7, "growthfit/erratic"))
	script := make([]float64, 64)
	for i := range script {
		if rng.Bernoulli(0.5) {
			script[i] = 20 + 10*rng.Float64()
		} else {
			script[i] = 0.2 * rng.Float64()
		}
	}
	return script
}

// TestGrowthFitFallbackByteIdentical pins the fallback contract: on a
// workload the shapes cannot describe (residual stays above threshold)
// GrowthFit must issue the exact ScaleTo sequence a plain Reactive
// with the same bounds issues — not similar, identical. The script
// drives the meter too, so the fitter sees nonzero, erratic rates
// rather than an empty window.
func TestGrowthFitFallbackByteIdentical(t *testing.T) {
	const min, max = 1, 40
	script := erraticScript()

	run := func(start func(tgt Target, eng *sim.Engine) func()) []int {
		eng := sim.NewEngine(1)
		tgt := &fakeTarget{desired: 3}
		// The script drives the load per minute, as a fleet's state would;
		// Load() itself is idempotent within a tick, matching the real
		// Target contract (GrowthFit reads it twice per decision). The
		// meter counts a minute of arrivals at 10 requests per second per
		// unit of load.
		i := 0
		drive := eng.Every(time.Minute, "script", func() {
			tgt.load = script[i%len(script)]
			tgt.count += uint64(tgt.load * 600)
			i++
		})
		defer drive()
		stop := start(tgt, eng)
		defer stop()
		eng.Run(3 * time.Hour)
		return tgt.calls
	}

	reactive := run(func(tgt Target, eng *sim.Engine) func() { return NewReactive(tgt, min, max).Start(eng) })
	var g *GrowthFit
	growthfit := run(func(tgt Target, eng *sim.Engine) func() {
		g = NewGrowthFit(tgt, 0.1, min, max)
		return g.Start(eng)
	})

	if len(reactive) == 0 {
		t.Fatal("the script never moved the reactive loop")
	}
	if g.LastStable().Stable {
		t.Fatalf("a fit stabilized on the erratic script: %v", g.LastStable())
	}
	if nonzero := len(g.rates) - countZero(g.rates); nonzero < len(g.rates)/4 {
		t.Fatalf("fitter saw %d nonzero rates of %d, want the script's bursts", nonzero, len(g.rates))
	}
	if len(reactive) != len(growthfit) {
		t.Fatalf("action counts differ: reactive %d, growth-fit %d", len(reactive), len(growthfit))
	}
	for i := range reactive {
		if reactive[i] != growthfit[i] {
			t.Fatalf("action %d differs: reactive ScaleTo(%d), growth-fit ScaleTo(%d)",
				i, reactive[i], growthfit[i])
		}
	}
}

func countZero(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x == 0 {
			n++
		}
	}
	return n
}

// TestGrowthFitProvisionsAheadOfRamp drives the metered path: arrivals
// accelerate along a linear ramp, and once the fit stabilizes the
// scaler must provision for the projected rate a lead ahead — strictly
// more than the current rate needs.
func TestGrowthFitProvisionsAheadOfRamp(t *testing.T) {
	eng := sim.NewEngine(1)
	tgt := &fakeTarget{desired: 1}
	const meanSvc = 0.1
	g := NewGrowthFit(tgt, meanSvc, 1, 1000)
	stop := g.Start(eng)
	defer stop()
	// rate(t) = 10 + t/60 req/s: feed the counter just before each tick.
	feed := eng.Every(time.Minute, "feed", func() {
		rate := 10 + sim.ToSeconds(eng.Now())/60
		tgt.count += uint64(rate * 60)
	})
	defer feed()
	eng.Run(40 * time.Minute)
	fit := g.Fit()
	if !fit.Stable || fit.Shape != FitLinear {
		t.Fatalf("fit did not stabilize on the ramp: %+v", fit)
	}
	nowRate := 10 + sim.ToSeconds(eng.Now())/60
	nowNeed := deploy.ServersForPeak(nowRate, meanSvc)
	if tgt.desired <= nowNeed {
		t.Fatalf("desired = %d, want > %d (provisioned ahead of the ramp)", tgt.desired, nowNeed)
	}
	if g.LastStable().Shape != FitLinear {
		t.Fatalf("LastStable = %+v, want the linear fit", g.LastStable())
	}
}

// TestGrowthFitClampsMeterDip pins the defensive clamp on the meter
// both forecasters read: the Arrivals contract is monotone, but if a
// meter ever dips (the bug class: a counter derived from
// served+rejected+active sums while servers drain), the unsigned
// difference must degrade to a zero rate observation — not wrap to
// ~1.8e19, poison growth-fit's fit window and size predictive's fleet
// to its cap.
func TestGrowthFitClampsMeterDip(t *testing.T) {
	// Grow the counter, then dip it mid-run (a scale-in drain), then
	// resume growing.
	counts := []uint64{600, 1200, 1800, 1500, 2100, 2700}
	const maxServers = 1000
	run := func(start func(tgt Target, eng *sim.Engine) func()) *fakeTarget {
		eng := sim.NewEngine(1)
		tgt := &fakeTarget{desired: 1}
		stop := start(tgt, eng)
		defer stop()
		i := 0
		feed := eng.Every(time.Minute, "feed", func() {
			if i < len(counts) {
				tgt.count = counts[i]
				i++
			}
		})
		defer feed()
		eng.Run(time.Duration(len(counts)) * time.Minute)
		return tgt
	}

	var g *GrowthFit
	run(func(tgt Target, eng *sim.Engine) func() {
		g = NewGrowthFit(tgt, 0.1, 1, maxServers)
		return g.Start(eng)
	})
	for j, r := range g.rates {
		if r < 0 || r > 1e6 {
			t.Fatalf("rate observation %d = %g; a meter dip wrapped the unsigned delta", j, r)
		}
	}
	if min := minFloat(g.rates); min != 0 {
		t.Fatalf("dip tick observed rate %g, want clamped 0", min)
	}

	var p *Predictive
	tgt := run(func(tgt Target, eng *sim.Engine) func() {
		p = NewPredictive(tgt, 0.1, 1, maxServers)
		return p.Start(eng)
	})
	if f := p.Forecast(); math.Abs(f) > 1e6 {
		t.Fatalf("predictive forecast %g req/s; a meter dip wrapped the unsigned delta", f)
	}
	for _, n := range tgt.calls {
		if n >= maxServers {
			t.Fatalf("predictive scaled to %d (scale calls %v); a meter dip sized the fleet to its cap", n, tgt.calls)
		}
	}
}

func minFloat(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// TestOracleBootsBeforePlanRise pins the oracle's lead semantics: a
// step in the plan at t=30m must be provisioned a full lead early, and
// scale-in must wait until the demand has passed — the max over
// [now, now+lead], not the value at now+lead.
func TestOracleBootsBeforePlanRise(t *testing.T) {
	eng := sim.NewEngine(1)
	tgt := &fakeTarget{desired: 1}
	plan := func(at time.Duration) int {
		if at >= 30*time.Minute && at < 60*time.Minute {
			return 9
		}
		return 2
	}
	stop := NewPlanned(tgt, plan, time.Minute, 5*time.Minute, 1, 0).Start(eng)
	defer stop()

	eng.Run(26 * time.Minute)
	if tgt.desired != 9 {
		t.Fatalf("desired at 26m = %d, want 9 (booted a lead before the 30m rise)", tgt.desired)
	}
	// At 56m the window [56m, 61m] still overlaps the demand plateau's
	// final minutes... it ends at 60m, so the max keeps 9 until 59m.
	eng.Run(58 * time.Minute)
	if tgt.desired != 9 {
		t.Fatalf("desired at 58m = %d, want 9 (scale-in must wait for the demand to pass)", tgt.desired)
	}
	eng.Run(65 * time.Minute)
	if tgt.desired != 2 {
		t.Fatalf("desired at 65m = %d, want 2 after the plateau", tgt.desired)
	}
}

func TestFitGrowthDegenerateInputs(t *testing.T) {
	if fit := FitGrowth(nil, nil); !math.IsInf(fit.Residual, 1) || fit.Shape != FitNone {
		t.Fatalf("empty input: %+v", fit)
	}
	if fit := FitGrowth([]float64{1, 2}, []float64{1, 2}); !math.IsInf(fit.Residual, 1) {
		t.Fatalf("two points: %+v", fit)
	}
	if fit := FitGrowth([]float64{1, 2, 3}, []float64{0, 0, 0}); !math.IsInf(fit.Residual, 1) {
		t.Fatalf("all-zero rates: %+v", fit)
	}
	if s := (FitReport{}).String(); s != "no fit" {
		t.Fatalf("zero report renders %q", s)
	}
	if FitNone.String() != "none" || FitLinear.String() != "linear" || FitLogistic.String() != "logistic" {
		t.Fatal("shape names wrong")
	}
}

func TestGrowthFitConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil target":      func() { NewGrowthFit(nil, 0.1, 1, 0) },
		"no mean service": func() { NewGrowthFit(&fakeTarget{}, 0, 1, 0) },
		"oracle nil plan": func() { NewPlanned(&fakeTarget{}, nil, time.Minute, Lead, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
