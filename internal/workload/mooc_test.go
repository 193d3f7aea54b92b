package workload

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

func TestLogisticGrowthShape(t *testing.T) {
	g := LogisticGrowth(50000, 500000, 5*7*24*time.Hour)
	if got := g.At(0); math.Abs(got-50000) > 1 {
		t.Fatalf("At(0) = %v, want ~50000", got)
	}
	if got := g.At(5 * 7 * 24 * time.Hour); math.Abs(got-250000) > 1 {
		t.Fatalf("At(midpoint) = %v, want 250000", got)
	}
	if got := g.At(100 * 7 * 24 * time.Hour); math.Abs(got-500000) > 1 {
		t.Fatalf("At(far) = %v, want ~500000", got)
	}
	if g.Max() != 500000 {
		t.Fatalf("Max = %v", g.Max())
	}
	// Monotone nondecreasing, clamped below zero.
	last := g.At(-time.Hour)
	for d := time.Duration(0); d <= 10*7*24*time.Hour; d += 6 * time.Hour {
		v := g.At(d)
		if v < last {
			t.Fatalf("not monotone at %v: %v < %v", d, v, last)
		}
		last = v
	}
}

func TestLinearGrowthShape(t *testing.T) {
	g := LinearGrowth(500, 2000, 2*time.Hour)
	if got := g.At(0); got != 500 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := g.At(time.Hour); got != 1250 {
		t.Fatalf("At(1h) = %v, want 1250", got)
	}
	if got := g.At(3 * time.Hour); got != 2000 {
		t.Fatalf("At(3h) = %v, want 2000 (holds after ramp)", got)
	}
	if g.Max() != 2000 {
		t.Fatalf("Max = %v", g.Max())
	}
	if g.String() == "" || LogisticGrowth(1, 3, time.Hour).String() == "" {
		t.Fatal("empty String")
	}
}

func TestGrowthPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"logistic start>=cap": func() { LogisticGrowth(10, 10, time.Hour) },
		"logistic zero start": func() { LogisticGrowth(0, 10, time.Hour) },
		// start >= capacity/2 would derive k <= 0: a flat or DECAYING
		// curve masquerading as growth, violating monotonicity.
		"logistic start at half capacity":    func() { LogisticGrowth(5, 10, time.Hour) },
		"logistic start above half capacity": func() { LogisticGrowth(400, 500, time.Hour) },
		"logistic no midpoint":               func() { LogisticGrowth(1, 10, 0) },
		"linear final<start":                 func() { LinearGrowth(10, 5, time.Hour) },
		"linear zero ramp":                   func() { LinearGrowth(1, 10, 0) },
		"zero value":                         func() { (&Growth{}).At(0) },
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

func TestSuperposeTimezonesFlattensThePeak(t *testing.T) {
	global := GlobalCohort()
	campus := CampusDiurnal()
	if global.Peak() >= campus.Peak() {
		t.Fatalf("superposition did not flatten: global peak %v vs campus %v",
			global.Peak(), campus.Peak())
	}
	if global.Peak() >= 1.6 {
		t.Fatalf("global cohort peak = %v, want < 1.6 (the doc's claim)", global.Peak())
	}
	// ...and fills the overnight trough.
	if global.At(3*time.Hour) <= campus.At(3*time.Hour) {
		t.Fatal("superposition should raise the overnight floor")
	}
	// The load is redistributed, not destroyed: the daily mean is
	// preserved up to the hourly-anchor resampling.
	if math.Abs(global.Mean()-campus.Mean()) > 0.05 {
		t.Fatalf("mean drifted: %v vs %v", global.Mean(), campus.Mean())
	}
	// A single zero-shift wave reproduces its profile exactly.
	same := SuperposeTimezones([]TimezoneWave{{Shift: 0, Weight: 3, Profile: campus}})
	for h := 0; h < 24; h++ {
		d := time.Duration(h) * time.Hour
		if math.Abs(same.At(d)-campus.At(d)) > 1e-12 {
			t.Fatalf("identity superposition differs at hour %d", h)
		}
	}
}

func TestSuperposeTimezonesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":           func() { SuperposeTimezones(nil) },
		"negative weight": func() { SuperposeTimezones([]TimezoneWave{{Weight: -1}}) },
		"zero total":      func() { SuperposeTimezones([]TimezoneWave{{Weight: 0}}) },
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

func TestDeadlineStormShape(t *testing.T) {
	s := DeadlineStorm{Deadline: 2 * time.Hour, Ramp: 90 * time.Minute, PeakMult: 10, Tau: 25 * time.Minute}
	if got := s.MultAt(20 * time.Minute); got != 1 {
		t.Fatalf("before ramp: mult = %v, want 1", got)
	}
	if got := s.MultAt(2 * time.Hour); got != 1 {
		t.Fatalf("at the deadline the cliff has passed: mult = %v, want 1", got)
	}
	// Monotone increasing inside the ramp, approaching PeakMult.
	last := 0.0
	for d := 31 * time.Minute; d < 2*time.Hour; d += time.Minute {
		m := s.MultAt(d)
		if m <= last {
			t.Fatalf("not increasing at %v", d)
		}
		last = m
	}
	if last < 9.5 || last > 10 {
		t.Fatalf("multiplier just before the deadline = %v, want ~10", last)
	}
	// MaxOn bounds MultAt on any window.
	for _, w := range [][2]time.Duration{
		{0, 40 * time.Minute}, {40 * time.Minute, 80 * time.Minute},
		{100 * time.Minute, 119 * time.Minute}, {2 * time.Hour, 3 * time.Hour},
	} {
		bound := s.MaxOn(w[0], w[1])
		for d := w[0]; d < w[1]; d += 17 * time.Second {
			if m := s.MultAt(d); m > bound+1e-12 {
				t.Fatalf("MultAt(%v) = %v exceeds MaxOn(%v,%v) = %v", d, m, w[0], w[1], bound)
			}
		}
	}
}

func TestJoinStormShape(t *testing.T) {
	j := JoinStorm{Start: 15 * time.Minute, Window: 30 * time.Minute, PeakMult: 6, Decay: 5 * time.Minute}
	if got := j.MultAt(10 * time.Minute); got != 1 {
		t.Fatalf("before start: %v", got)
	}
	if got := j.MultAt(15 * time.Minute); math.Abs(got-6) > 1e-12 {
		t.Fatalf("at start: %v, want 6", got)
	}
	if got := j.MultAt(45 * time.Minute); got != 1 {
		t.Fatalf("after window: %v", got)
	}
	// Decreasing inside the window.
	last := math.Inf(1)
	for d := 15 * time.Minute; d < 45*time.Minute; d += time.Minute {
		m := j.MultAt(d)
		if m >= last {
			t.Fatalf("not decreasing at %v", d)
		}
		last = m
	}
	for _, w := range [][2]time.Duration{
		{0, 20 * time.Minute}, {20 * time.Minute, 44 * time.Minute}, {50 * time.Minute, time.Hour},
	} {
		bound := j.MaxOn(w[0], w[1])
		for d := w[0]; d < w[1]; d += 13 * time.Second {
			if m := j.MultAt(d); m > bound+1e-12 {
				t.Fatalf("MultAt(%v) = %v exceeds MaxOn = %v", d, m, bound)
			}
		}
	}
}

func TestMOOCConfigValidation(t *testing.T) {
	// Storm and join sanity failures surface through NewGenerator.
	bad := []Config{
		{Students: 10, ReqPerStudentHour: 1, Storms: []DeadlineStorm{{Deadline: time.Hour, Ramp: 0, PeakMult: 2}}},
		{Students: 10, ReqPerStudentHour: 1, Storms: []DeadlineStorm{{Deadline: time.Minute, Ramp: time.Hour, PeakMult: 2}}},
		{Students: 10, ReqPerStudentHour: 1, Storms: []DeadlineStorm{{Deadline: 2 * time.Hour, Ramp: time.Hour, PeakMult: 0.5}}},
		{Students: 10, ReqPerStudentHour: 1, Joins: []JoinStorm{{Start: 0, Window: 0, PeakMult: 2}}},
		{Students: 10, ReqPerStudentHour: 1, Joins: []JoinStorm{{Start: -time.Minute, Window: time.Hour, PeakMult: 2}}},
		{Students: 10, ReqPerStudentHour: 1, Joins: []JoinStorm{{Start: 0, Window: time.Hour, PeakMult: 0.9}}},
		// Derived e-folding times that truncate to zero.
		{Students: 10, ReqPerStudentHour: 1, Storms: []DeadlineStorm{{Deadline: time.Hour, Ramp: 2, PeakMult: 2}}},
		{Students: 10, ReqPerStudentHour: 1, Joins: []JoinStorm{{Start: 0, Window: 3, PeakMult: 2}}},
		// Students below the growth capacity.
		{Students: 100, ReqPerStudentHour: 1, Growth: LinearGrowth(50, 500, time.Hour)},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// The same nanosecond storms with explicit e-folding times are
	// valid.
	if _, err := NewGenerator(Config{Students: 10, ReqPerStudentHour: 1,
		Storms: []DeadlineStorm{{Deadline: time.Hour, Ramp: 2, PeakMult: 2, Tau: 1}},
		Joins:  []JoinStorm{{Start: 0, Window: 3, PeakMult: 2, Decay: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	// Zero Students is derived from the growth capacity.
	g, err := NewGenerator(Config{ReqPerStudentHour: 1, Growth: LinearGrowth(50, 500, time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.Students != 500 {
		t.Fatalf("derived Students = %d, want 500", g.cfg.Students)
	}
}

// moocConfigs are the family's representative shapes, shared by the
// envelope-correctness and determinism properties below (population
// scaled down so the tests stay fast; thinning acceptance is
// scale-invariant in the per-student rate).
func moocConfigs() map[string]Config {
	return map[string]Config{
		"viral-growth": {
			Growth:            LogisticGrowth(1000, 10000, 36*time.Hour),
			ReqPerStudentHour: 2,
		},
		"cohort-ramp": {
			Growth:            LinearGrowth(500, 5000, 8*time.Hour),
			ReqPerStudentHour: 2,
			Diurnal:           FlatDiurnal(),
		},
		"global-waves": {
			Students:          5000,
			ReqPerStudentHour: 2,
			Diurnal:           GlobalCohort(),
		},
		"deadline-storm": {
			Students:          5000,
			ReqPerStudentHour: 2,
			Diurnal:           FlatDiurnal(),
			Storms: []DeadlineStorm{{
				Deadline: 20 * time.Hour, Ramp: 6 * time.Hour, PeakMult: 10,
				Tau: 80 * time.Minute, ExamTraffic: true,
			}},
		},
		"join-storm": {
			Students:          5000,
			ReqPerStudentHour: 2,
			Diurnal:           FlatDiurnal(),
			Joins: []JoinStorm{{
				Start: 2 * time.Hour, Window: time.Hour, PeakMult: 8,
				Decay: 10 * time.Minute, ExamTraffic: true,
			}},
		},
		"everything-at-once": {
			Growth:            LogisticGrowth(1000, 10000, 20*time.Hour),
			ReqPerStudentHour: 2,
			Diurnal:           GlobalCohort(),
			Calendar:          NewCalendar([]Week{{Kind: Teaching, Mult: 1}, {Kind: Exams, Mult: 1.5}}),
			Storms: []DeadlineStorm{{
				Deadline: 30 * time.Hour, Ramp: 8 * time.Hour, PeakMult: 6, ExamTraffic: true,
			}},
			Joins: []JoinStorm{{Start: 10 * time.Hour, Window: time.Hour, PeakMult: 5}},
		},
	}
}

// moocHorizon covers every shape feature above (storm windows, a week
// boundary, most of the growth) while keeping the test fast.
const moocHorizon = 36 * time.Hour

// TestMOOCEnvelopeBoundsRate is the envelope-correctness property: at
// no instant — and in particular at no generated arrival — may the
// instantaneous rate outrun the piecewise thinning bound, and each
// envelope segment must advance.
func TestMOOCEnvelopeBoundsRate(t *testing.T) {
	for name, cfg := range moocConfigs() {
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			env := g.Envelope()
			check := func(at time.Duration) {
				max, until := env(at)
				if until <= at {
					t.Fatalf("envelope segment at %v does not advance (until %v)", at, until)
				}
				if r := g.Rate(at); r > max+1e-9 {
					t.Fatalf("rate %v at %v outruns the envelope bound %v", r, at, max)
				}
			}
			// Dense deterministic scan...
			for at := time.Duration(0); at < moocHorizon; at += 97 * time.Second {
				check(at)
			}
			// ...plus every actual arrival of a generated stream.
			n := g.Generate(sim.NewRNG(7), 0, moocHorizon, func(a Arrival) { check(a.At) })
			if n == 0 {
				t.Fatal("no arrivals generated")
			}
		})
	}
}

// TestMOOCThinningAcceptance pins the performance property the
// piecewise envelope exists for: on every MOOC shape the sampler must
// accept at least ~50% of its thinning candidates (a single global
// bound manages ~10% on a 10x growth curve). The committed
// BenchmarkMOOCAcceptance reports the same ratio at 10^5 students.
func TestMOOCThinningAcceptance(t *testing.T) {
	for name, cfg := range moocConfigs() {
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := g.Stream(sim.NewRNG(13), 0)
			for {
				if _, ok := s.Next(moocHorizon); !ok {
					break
				}
			}
			proposed, accepted := s.Thinning()
			if proposed == 0 {
				t.Fatal("no candidates proposed")
			}
			if rate := float64(accepted) / float64(proposed); rate < 0.5 {
				t.Errorf("thinning acceptance = %.1f%% (%d/%d), want >= 50%%",
					rate*100, accepted, proposed)
			}
		})
	}
}

// TestMaxRateBoundsOverlappingWindows: Rate multiplies every active
// window, so MaxRate must compound a join storm sitting inside a
// deadline ramp (figure10's shape) instead of taking the single
// largest multiplier — fleet sizing reads MaxRate, and an
// under-estimate would silently under-provision the peak.
func TestMaxRateBoundsOverlappingWindows(t *testing.T) {
	deadline := 3 * time.Hour
	g, err := NewGenerator(Config{
		Students:          1000,
		ReqPerStudentHour: 3.6, // base aggregate = 1 req/s
		Diurnal:           FlatDiurnal(),
		Storms: []DeadlineStorm{{
			Deadline: deadline, Ramp: 2 * time.Hour, PeakMult: 10, Tau: 30 * time.Minute,
		}},
		Joins: []JoinStorm{{
			Start: deadline - 10*time.Minute, Window: 30 * time.Minute,
			PeakMult: 6, Decay: 10 * time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := g.MaxRate()
	for at := time.Duration(0); at < 4*time.Hour; at += 13 * time.Second {
		if r := g.Rate(at); r > bound {
			t.Fatalf("Rate(%v) = %v exceeds MaxRate %v", at, r, bound)
		}
	}
	// The overlap really stacks: just before the deadline both windows
	// are active and the rate exceeds the larger single multiplier.
	if r := g.Rate(deadline - 9*time.Minute); r <= 10 {
		t.Fatalf("overlap rate = %v, want > 10 (the single largest multiplier)", r)
	}
}

// TestMOOCDeterminism: the (seed, job name) rule holds for every MOOC
// shape — the same seed reproduces the stream arrival for arrival, and
// seeds derived from distinct job names decorrelate it.
func TestMOOCDeterminism(t *testing.T) {
	for name, cfg := range moocConfigs() {
		t.Run(name, func(t *testing.T) {
			gen := func(seed uint64) []Arrival {
				g, err := NewGenerator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out []Arrival
				g.Generate(sim.NewRNG(seed), 0, 12*time.Hour, func(a Arrival) { out = append(out, a) })
				return out
			}
			a, b := gen(sim.SeedFor(3, "job-a")), gen(sim.SeedFor(3, "job-a"))
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("same (seed, name) diverged: %d vs %d arrivals", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same (seed, name) diverged at arrival %d", i)
				}
			}
			c := gen(sim.SeedFor(3, "job-b"))
			same := len(a) == len(c)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatal("distinct job names produced identical streams")
			}
		})
	}
}

// TestGrowthTraceRoundTrip: a growth workload's arrivals come in time
// order.
func TestGrowthTraceRoundTrip(t *testing.T) {
	g, err := NewGenerator(Config{ReqPerStudentHour: 10, Growth: LinearGrowth(20, 200, 6*time.Hour), Diurnal: FlatDiurnal()})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	n := g.Generate(sim.NewRNG(17), 0, 8*time.Hour, func(a Arrival) {
		if a.At < last {
			t.Fatalf("arrival at %v precedes %v", a.At, last)
		}
		last = a.At
	})
	if n == 0 {
		t.Fatal("no arrivals")
	}
}

// TestMOOCMixSwitches: exam-flagged storms and joins switch the request
// mix inside their windows, like exam crowds and exam weeks do.
func TestMOOCMixSwitches(t *testing.T) {
	g, err := NewGenerator(Config{
		Students:          100,
		ReqPerStudentHour: 10,
		Storms: []DeadlineStorm{{
			Deadline: 4 * time.Hour, Ramp: time.Hour, PeakMult: 5, ExamTraffic: true,
		}},
		Joins: []JoinStorm{{Start: time.Hour, Window: 30 * time.Minute, PeakMult: 5, ExamTraffic: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.MixAt(30*time.Minute) != g.teachingMix {
		t.Fatal("outside every window the teaching mix should rule")
	}
	if g.MixAt(70*time.Minute) != g.examMix {
		t.Fatal("join storm did not switch the mix")
	}
	if g.MixAt(3*time.Hour+30*time.Minute) != g.examMix {
		t.Fatal("deadline storm did not switch the mix")
	}
	if g.MixAt(4*time.Hour) != g.teachingMix {
		t.Fatal("past the deadline cliff the teaching mix should return")
	}
}
