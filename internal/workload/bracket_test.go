package workload

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// noBracket is the trivial bracket: it settles no candidate, so a
// sampler wired with it evaluates the rate at every one.
func noBracket(sim.Time) (float64, float64) { return 0, math.Inf(1) }

// unsqueezed returns g's arrival stream with the trivial bracket in
// place of g's rate cells: the sampler as it was before the squeeze.
func unsqueezed(g *Generator, rng *sim.RNG, start time.Duration) *ArrivalStream {
	s := g.Stream(rng, start)
	s.proc = sim.NewNHPPEnvelope(rng.Stream("arrivals"), g.Rate, g.Envelope(), noBracket, start)
	return s
}

// randomShape draws a valid config that exercises every factor of Rate
// at nanosecond-offset edges: a growth curve or a fixed population, a
// random day shape with silent hours, a calendar whose weeks run from
// silent to 3x, crowds below and above 1x, and deadline and join storms
// with explicit or derived e-folding times.
func randomShape(r *sim.RNG, horizon time.Duration) Config {
	at := func() time.Duration { return time.Duration(r.Intn(int(horizon))) }
	span := func(max time.Duration) time.Duration { return 1 + time.Duration(r.Intn(int(max))) }
	cfg := Config{ReqPerStudentHour: 0.5 + 100*r.Float64()}
	switch r.Intn(3) {
	case 0:
		cfg.Students = 1 + r.Intn(100000)
	case 1:
		start := 1 + r.Intn(10000)
		cfg.Growth = LinearGrowth(start, start+r.Intn(100000), span(horizon))
	default:
		start := 1 + r.Intn(10000)
		cfg.Growth = LogisticGrowth(start, 2*start+1+r.Intn(100000), span(horizon))
	}
	var hours [24]float64
	for h := range hours {
		if r.Bernoulli(0.8) {
			hours[h] = 3 * r.Float64()
		}
	}
	cfg.Diurnal = NewDiurnalProfile(hours)
	if r.Bernoulli(0.5) {
		weeks := make([]Week, 1+r.Intn(4))
		for i := range weeks {
			weeks[i] = Week{Kind: Teaching, Mult: 3 * r.Float64()}
		}
		cfg.Calendar = NewCalendar(weeks)
	}
	for i := r.Intn(4); i > 0; i-- {
		start := at()
		cfg.Crowds = append(cfg.Crowds, FlashCrowd{Start: start, End: start + span(3*time.Hour), Mult: 0.01 + 10*r.Float64()})
	}
	for i := r.Intn(3); i > 0; i-- {
		ramp := 3 + span(4*time.Hour)
		s := DeadlineStorm{Deadline: ramp + at(), Ramp: ramp, PeakMult: 1 + 12*r.Float64()}
		if r.Bernoulli(0.5) {
			s.Tau = span(2 * time.Hour)
		}
		cfg.Storms = append(cfg.Storms, s)
	}
	for i := r.Intn(3); i > 0; i-- {
		j := JoinStorm{Start: at(), Window: 3 + span(time.Hour), PeakMult: 1 + 12*r.Float64()}
		if r.Bernoulli(0.5) {
			j.Decay = span(30 * time.Minute)
		}
		cfg.Joins = append(cfg.Joins, j)
	}
	return cfg
}

// TestCellBracketsRate: every cell starts at its query time, ends after
// it and by the next minute mark and the envelope segment's end, and
// brackets Rate as computed, rounding included, at its two ends and at
// a random instant inside it. The shapes are the envelope tests' and 40
// random ones; the cells start at every envelope segment's first two
// instants and its last, and at 2,000 random instants.
func TestCellBracketsRate(t *testing.T) {
	type shape struct {
		name    string
		cfg     Config
		horizon time.Duration
	}
	var shapes []shape
	for name, cfg := range envelopeShapes() {
		shapes = append(shapes, shape{name, cfg, horizonOf(name)})
	}
	r := sim.NewRNG(41)
	for i := 0; i < 40; i++ {
		horizon := 3 * 7 * 24 * time.Hour
		shapes = append(shapes, shape{"random", randomShape(r, horizon), horizon})
	}
	for i, s := range shapes {
		g, err := NewGenerator(s.cfg)
		if err != nil {
			t.Fatalf("%s #%d: %v", s.name, i, err)
		}
		var starts []time.Duration
		for at := time.Duration(0); at < s.horizon; at = g.segmentEnd(at) {
			starts = append(starts, at, at+1, g.segmentEnd(at)-1)
		}
		for i := 0; i < 2000; i++ {
			starts = append(starts, time.Duration(r.Intn(int(s.horizon))))
		}
		for _, at := range starts {
			c := g.cell(at)
			if c.start != at || c.until <= at || c.until > at-at%time.Minute+time.Minute || c.until > g.segmentEnd(at) {
				t.Fatalf("%s #%d: cell at %v is [%v, %v)", s.name, i, at, c.start, c.until)
			}
			for _, x := range []time.Duration{at, c.until - 1, at + time.Duration(r.Intn(int(c.until-at)))} {
				if rate := g.Rate(x); !(c.lo <= rate && rate <= c.hi) {
					t.Fatalf("%s #%d: Rate(%v) = %v outside the cell [%v, %v)'s bracket [%v, %v]",
						s.name, i, x, rate, c.start, c.until, c.lo, c.hi)
				}
			}
		}
	}
}

// benchSpan is a generator config and a span of time to generate over.
type benchSpan struct {
	name       string
	cfg        Config
	start, end time.Duration
}

// benchmarkSpans are the four benchmark workloads' generator configs
// (bench/elperf/workloads.go) over the spans their runs generate at
// request level, from the runs' 3-minute boot grace: the 10k-to-100k
// ramp, the exam-day crowd, the deadline and join storms over a flat
// day, the outage week at 300 students, and table11's course in the
// DES windows its planner opens around its join spike and its two
// deadline storms.
func benchmarkSpans(t *testing.T) []benchSpan {
	const boot = 3 * time.Minute
	day, week := 24*time.Hour, 7*24*time.Hour
	spans := []benchSpan{
		{"ramp-100k", Config{
			Growth:            LinearGrowth(10000, 100000, 90*time.Minute),
			ReqPerStudentHour: 30,
			Diurnal:           FlatDiurnal(),
		}, boot, 2 * time.Hour},
		{"week-outage", Config{
			Students:          300,
			ReqPerStudentHour: 15,
		}, boot, week},
		{"crowd-burst/exam-day", Config{
			Students:          1000,
			ReqPerStudentHour: 50,
			Diurnal:           FlatDiurnal(),
			Crowds:            []FlashCrowd{{Start: 30 * time.Minute, End: 90 * time.Minute, Mult: 10, ExamTraffic: true}},
		}, boot, 2 * time.Hour},
		{"crowd-burst/deadline-storm", Config{
			Students:          1000,
			ReqPerStudentHour: 50,
			Diurnal:           FlatDiurnal(),
			Joins:             []JoinStorm{{Start: 30 * time.Minute, Window: 30 * time.Minute, PeakMult: 6, Decay: 5 * time.Minute, ExamTraffic: true}},
			Storms:            []DeadlineStorm{{Deadline: 150 * time.Minute, Ramp: 90 * time.Minute, PeakMult: 10, Tau: 30 * time.Minute, ExamTraffic: true}},
		}, boot, 3 * time.Hour},
	}
	course := Config{
		Growth:            LogisticGrowth(50000, 500000, 4*week),
		ReqPerStudentHour: 8,
		Diurnal:           GlobalCohort(),
		Joins:             []JoinStorm{{Start: 2*day + 18*time.Hour, Window: 30 * time.Minute, PeakMult: 5}},
		Storms: []DeadlineStorm{
			{Deadline: 3*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
			{Deadline: 5*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
		},
	}
	g, err := NewGenerator(course)
	if err != nil {
		t.Fatal(err)
	}
	wins := g.BurstWindows(10*week, 1.5, 10*time.Minute, 5*time.Minute)
	if len(wins) != 3 {
		t.Fatalf("table11's course plans %d DES windows, want 3", len(wins))
	}
	for _, w := range wins {
		spans = append(spans, benchSpan{"mooc-hybrid", course, w.Start + boot, w.End})
	}
	return spans
}

// TestSqueezeExactOnBenchmarkWorkloads: on every benchmark workload's
// spans the squeezed stream emits exactly the arrivals, classes
// included, of the stream that evaluates the rate at every candidate,
// from the same number of candidates, and evaluates the rate at no
// more than 2% of them (every one, before the squeeze).
func TestSqueezeExactOnBenchmarkWorkloads(t *testing.T) {
	for _, sp := range benchmarkSpans(t) {
		g, err := NewGenerator(sp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := g.Stream(sim.NewRNG(5), sp.start), unsqueezed(g, sim.NewRNG(5), sp.start)
		n := 0
		for {
			a, ok := got.Next(sp.end)
			b, okWant := want.Next(sp.end)
			if ok != okWant || a != b {
				t.Fatalf("%s [%v, %v]: arrival %d = (%+v, %v), unsqueezed (%+v, %v)",
					sp.name, sp.start, sp.end, n, a, ok, b, okWant)
			}
			if !ok {
				break
			}
			n++
		}
		proposed, accepted := got.Thinning()
		wantProposed, wantAccepted := want.Thinning()
		if proposed != wantProposed || accepted != wantAccepted || want.rateEvaluations() != wantProposed {
			t.Fatalf("%s: %d of %d candidates accepted, unsqueezed %d of %d with %d rates evaluated",
				sp.name, accepted, proposed, wantAccepted, wantProposed, want.rateEvaluations())
		}
		share := float64(got.rateEvaluations()) / float64(proposed)
		t.Logf("%s [%v, %v]: %d arrivals, %d candidates, %.2f%% rates evaluated",
			sp.name, sp.start, sp.end, n, proposed, 100*share)
		if n == 0 || share > 0.02 {
			t.Errorf("%s [%v, %v]: %d arrivals, rate evaluated at %d of %d candidates (%.2f%%), want <= 2%%",
				sp.name, sp.start, sp.end, n, got.rateEvaluations(), proposed, 100*share)
		}
	}
}
