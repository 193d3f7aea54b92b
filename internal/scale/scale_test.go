package scale

import (
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/sim"
)

// fakeTarget is a controllable Target for scaler tests: its load and
// arrival count are set by the test.
type fakeTarget struct {
	desired int
	load    float64
	count   uint64
	calls   []int
}

func (f *fakeTarget) Desired() int  { return f.desired }
func (f *fakeTarget) Load() float64 { return f.load }
func (f *fakeTarget) ScaleTo(n int) { f.desired = n; f.calls = append(f.calls, n) }

func (f *fakeTarget) Arrivals() uint64 { return f.count }

// TestReactiveScalesOutUnderLoad: load just above scaleOutLoad adds one
// step of servers.
func TestReactiveScalesOutUnderLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 2, load: 6.5}
	stop := NewReactive(ft, 1, 10).Start(eng)
	defer stop()
	eng.Run(90 * time.Second)
	if ft.desired != 6 {
		t.Fatalf("desired = %d, want 6 after one scale-out of 4", ft.desired)
	}
}

// TestReactiveCooldownLimitsScaleOuts: under sustained load the loop
// scales out at most once per scaleOutCooldown, although it decides
// every minute.
func TestReactiveCooldownLimitsScaleOuts(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 2, load: 50}
	stop := NewReactive(ft, 1, 100).Start(eng)
	defer stop()
	eng.Run(5 * time.Minute)
	// Decisions at 1m..5m: scale-outs at 1m, 3m and 5m only.
	want := []int{6, 10, 14}
	if len(ft.calls) != len(want) {
		t.Fatalf("scale-outs = %v, want %v (one per cooldown)", ft.calls, want)
	}
	for i := range want {
		if ft.calls[i] != want[i] {
			t.Fatalf("scale-outs = %v, want %v", ft.calls, want)
		}
	}
}

// TestReactiveScalesInWhenCold: load just below scaleInLoad removes one
// server per decision down to the floor, and no further.
func TestReactiveScalesInWhenCold(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 5, load: 1.4}
	stop := NewReactive(ft, 2, 0).Start(eng)
	defer stop()
	eng.Run(10 * time.Minute)
	if ft.desired != 2 {
		t.Fatalf("desired = %d, want scale-in to the floor of 2", ft.desired)
	}
	if len(ft.calls) != 3 {
		t.Fatalf("scale-ins = %v, want three steps of one", ft.calls)
	}
}

// TestReactiveRespectsMax: scale-out clamps at the ceiling.
func TestReactiveRespectsMax(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 3, load: 100}
	stop := NewReactive(ft, 1, 5).Start(eng)
	defer stop()
	eng.Run(time.Hour)
	if ft.desired != 5 {
		t.Fatalf("desired = %d, want clamped to 5", ft.desired)
	}
}

// TestReactiveIdleBandHolds: a load anywhere in [scaleInLoad,
// scaleOutLoad] leaves the fleet alone — both thresholds included.
func TestReactiveIdleBandHolds(t *testing.T) {
	for _, load := range []float64{1.5, 3, 6} {
		eng := sim.NewEngine(1)
		ft := &fakeTarget{desired: 3, load: load}
		stop := NewReactive(ft, 1, 0).Start(eng)
		eng.Run(30 * time.Minute)
		stop()
		if len(ft.calls) != 0 {
			t.Fatalf("load %g: scaler acted %d times in the dead band", load, len(ft.calls))
		}
	}
}

// TestScheduledFollowsPlan: with lead 0 a planned scaler follows its
// plan at each tick, as the scheduled policy runs it.
func TestScheduledFollowsPlan(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 1}
	plan := func(at time.Duration) int {
		if at >= 9*time.Hour && at < 17*time.Hour {
			return 8
		}
		return 2
	}
	var seen []time.Duration
	stop := NewPlanned(ft, func(at time.Duration) int {
		seen = append(seen, at)
		return plan(at)
	}, 30*time.Minute, 0, 1, 0).Start(eng)
	defer stop()
	eng.Run(10 * time.Hour)
	if ft.desired != 8 {
		t.Fatalf("desired at 10:00 = %d, want 8", ft.desired)
	}
	eng.Run(20 * time.Hour)
	if ft.desired != 2 {
		t.Fatalf("desired at 20:00 = %d, want 2", ft.desired)
	}
	// Lead 0: one plan sample per tick, at the tick's own time.
	for i, at := range seen {
		if want := time.Duration(i+1) * 30 * time.Minute; at != want {
			t.Fatalf("sample %d at %v, want %v (one per tick, at now)", i, at, want)
		}
	}
}

// rampThenCliff is a metered demand that rises for 40 minutes, 10 to 50
// requests per second, and then drops to a trickle of 1.
func rampThenCliff(now time.Duration) float64 {
	if now <= 40*time.Minute {
		return 10 + now.Minutes()
	}
	return 1
}

// feedRate advances ft's arrival meter by a minute of rate(now) before
// each scaler tick: call it before starting the scaler, so the feed's
// timer fires first at equal times.
func feedRate(eng *sim.Engine, ft *fakeTarget, rate func(time.Duration) float64) func() {
	return eng.Every(time.Minute, "feed", func() {
		ft.count += uint64(rate(eng.Now()) * 60)
	})
}

// TestPredictiveTracksRamp: on a rising metered rate the Holt trend
// provisions for the rate a Lead ahead, strictly more servers than the
// current rate needs.
func TestPredictiveTracksRamp(t *testing.T) {
	const meanSvc = 0.3
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 1}
	stopFeed := feedRate(eng, ft, rampThenCliff)
	defer stopFeed()
	p := NewPredictive(ft, meanSvc, 1, 100)
	stop := p.Start(eng)
	defer stop()
	eng.Run(40 * time.Minute)
	nowNeed := deploy.ServersForPeak(rampThenCliff(eng.Now()), meanSvc)
	if ft.desired <= nowNeed {
		t.Fatalf("desired = %d, want > %d (provisioned ahead of the ramp)", ft.desired, nowNeed)
	}
	if f := p.Forecast(); f <= rampThenCliff(eng.Now()) {
		t.Fatalf("forecast %.2f req/s not above the current rate under growth", f)
	}
}

// TestPredictiveScalesInAfterPeak: once the metered rate falls off its
// cliff, the fleet returns to its floor.
func TestPredictiveScalesInAfterPeak(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 2}
	stopFeed := feedRate(eng, ft, rampThenCliff)
	defer stopFeed()
	stop := NewPredictive(ft, 0.3, 2, 50).Start(eng)
	defer stop()
	eng.Run(40 * time.Minute)
	peak := ft.desired
	eng.Run(time.Hour)
	if peak <= 20 || ft.desired != 2 {
		t.Fatalf("desired = %d at the peak and %d after the cliff, want > 20 and the floor of 2", peak, ft.desired)
	}
}

// TestPredictiveIgnoresSaturatedLoad: the demand signal is the metered
// rate, not in-flight work. With load pinned at the 256-job admission
// cap and a constant rate, the fleet settles at the rate's
// deploy.ServersForPeak size and holds it, rather than climbing to its
// cap on a load that more servers would never lower.
func TestPredictiveIgnoresSaturatedLoad(t *testing.T) {
	const rate, meanSvc, min, max = 20.0, 0.3, 2, 100
	want := deploy.ServersForPeak(rate, meanSvc)
	if want <= min || want >= max {
		t.Fatalf("ServersForPeak(%g, %g) = %d, want strictly inside [%d, %d]", rate, meanSvc, want, min, max)
	}
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: min, load: 256}
	stopFeed := feedRate(eng, ft, func(time.Duration) float64 { return rate })
	defer stopFeed()
	stop := NewPredictive(ft, meanSvc, min, max).Start(eng)
	defer stop()
	eng.Run(2 * time.Hour)
	if len(ft.calls) != 1 || ft.desired != want {
		t.Fatalf("scale calls = %v, want one ScaleTo(%d) held for two hours", ft.calls, want)
	}
}

func TestConstructorsPanicOnNil(t *testing.T) {
	for name, fn := range map[string]func(){
		"reactive":       func() { NewReactive(nil, 1, 0) },
		"planned nil t":  func() { NewPlanned(nil, func(time.Duration) int { return 1 }, time.Minute, 0, 1, 0) },
		"planned nil p":  func() { NewPlanned(&fakeTarget{}, nil, time.Minute, 0, 1, 0) },
		"predictive":     func() { NewPredictive(nil, 0.1, 1, 0) },
		"predictive svc": func() { NewPredictive(&fakeTarget{}, 0, 1, 0) },
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
