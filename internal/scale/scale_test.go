package scale

import (
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// fakeTarget is a controllable Target for scaler tests.
type fakeTarget struct {
	desired int
	load    float64
	calls   []int
}

func (f *fakeTarget) Desired() int  { return f.desired }
func (f *fakeTarget) Load() float64 { return f.load }
func (f *fakeTarget) ScaleTo(n int) { f.desired = n; f.calls = append(f.calls, n) }

func TestReactiveScalesOutUnderLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 2, load: 20}
	r := NewReactive(ft, ReactiveConfig{Interval: time.Minute, UpThreshold: 8, Step: 2, Max: 10})
	stop := r.Start(eng)
	defer stop()
	eng.Run(90 * time.Second)
	if ft.desired != 4 {
		t.Fatalf("desired = %d, want 4 after one scale-out", ft.desired)
	}
}

func TestReactiveCooldownLimitsScaleOuts(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 2, load: 50}
	r := NewReactive(ft, ReactiveConfig{
		Interval: time.Minute, UpThreshold: 8, Step: 2, Cooldown: 10 * time.Minute, Max: 100,
	})
	stop := r.Start(eng)
	defer stop()
	eng.Run(9 * time.Minute)
	if len(ft.calls) != 1 {
		t.Fatalf("scale-outs = %d, want 1 within cooldown", len(ft.calls))
	}
}

func TestReactiveScalesInWhenCold(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 5, load: 0.5}
	r := NewReactive(ft, ReactiveConfig{Interval: time.Minute, DownThreshold: 2, Min: 2})
	stop := r.Start(eng)
	defer stop()
	eng.Run(10 * time.Minute)
	if ft.desired != 2 {
		t.Fatalf("desired = %d, want scale-in to Min=2", ft.desired)
	}
}

func TestReactiveRespectsMax(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 3, load: 100}
	r := NewReactive(ft, ReactiveConfig{
		Interval: time.Minute, UpThreshold: 1, Step: 10, Max: 5, Cooldown: time.Minute,
	})
	stop := r.Start(eng)
	defer stop()
	eng.Run(time.Hour)
	if ft.desired != 5 {
		t.Fatalf("desired = %d, want clamped to 5", ft.desired)
	}
}

func TestReactiveIdleBandHolds(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 3, load: 5} // between thresholds
	r := NewReactive(ft, ReactiveConfig{Interval: time.Minute, UpThreshold: 8, DownThreshold: 2})
	stop := r.Start(eng)
	defer stop()
	eng.Run(30 * time.Minute)
	if len(ft.calls) != 0 {
		t.Fatalf("scaler acted %d times in the dead band", len(ft.calls))
	}
}

func TestScheduledFollowsPlan(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 1}
	plan := func(tod time.Duration) int {
		if tod >= 9*time.Hour && tod < 17*time.Hour {
			return 8
		}
		return 2
	}
	s := NewScheduled(ft, plan, 30*time.Minute, 1, 0)
	stop := s.Start(eng)
	defer stop()
	eng.Run(10 * time.Hour)
	if ft.desired != 8 {
		t.Fatalf("desired at 10:00 = %d, want 8", ft.desired)
	}
	eng.Run(20 * time.Hour)
	if ft.desired != 2 {
		t.Fatalf("desired at 20:00 = %d, want 2", ft.desired)
	}
	if s.Name() != "scheduled" {
		t.Fatal("name wrong")
	}
}

func TestPredictiveTracksRamp(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 1, load: 1}
	p := NewPredictive(ft, PredictiveConfig{
		Interval: time.Minute, Lead: 5 * time.Minute, PerServer: 6, Max: 100,
	})
	stop := p.Start(eng)
	defer stop()
	// Demand doubles every few minutes: per-server load stays high as the
	// fake target's load does not decrease with more servers, modeling a
	// steep ramp.
	rampStop := eng.Every(time.Minute, "ramp", func() { ft.load *= 1.5 })
	defer rampStop()
	eng.Run(30 * time.Minute)
	if ft.desired <= 1 {
		t.Fatalf("predictive never scaled out (desired=%d)", ft.desired)
	}
	if p.Forecast() <= 0 {
		t.Fatal("forecast not positive under growth")
	}
	if p.Name() != "predictive" {
		t.Fatal("name wrong")
	}
}

func TestPredictiveScalesInAfterPeak(t *testing.T) {
	eng := sim.NewEngine(1)
	ft := &fakeTarget{desired: 10, load: 12}
	p := NewPredictive(ft, PredictiveConfig{
		Interval: time.Minute, Lead: 2 * time.Minute, PerServer: 6, Min: 2, Max: 50,
	})
	stop := p.Start(eng)
	defer stop()
	eng.Schedule(5*time.Minute, "quiet", func() { ft.load = 0.1 })
	eng.Run(time.Hour)
	if ft.desired > 3 {
		t.Fatalf("desired = %d, want scale-in toward Min after load vanished", ft.desired)
	}
}

func TestConstructorsPanicOnNil(t *testing.T) {
	for name, fn := range map[string]func(){
		"reactive":        func() { NewReactive(nil, ReactiveConfig{}) },
		"scheduled nil t": func() { NewScheduled(nil, func(time.Duration) int { return 1 }, 0, 0, 0) },
		"scheduled nil p": func() { NewScheduled(&fakeTarget{}, nil, 0, 0, 0) },
		"predictive":      func() { NewPredictive(nil, PredictiveConfig{}) },
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

func TestReactiveConfigDefaults(t *testing.T) {
	var cfg ReactiveConfig
	cfg.defaults()
	if cfg.Interval <= 0 || cfg.UpThreshold <= cfg.DownThreshold || cfg.Step <= 0 || cfg.Min < 1 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	// Inverted thresholds are repaired.
	cfg = ReactiveConfig{UpThreshold: 2, DownThreshold: 5}
	cfg.defaults()
	if cfg.DownThreshold >= cfg.UpThreshold {
		t.Fatalf("thresholds not repaired: %+v", cfg)
	}
}
