package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// The references below are the per-call formulas the per-segment
// envelope replaces: every factor is recomputed at every query. The tests compare the new code against
// them with ==, so a reordered float product or a stale cached factor
// fails.

// refEnvelope is the envelope with every factor recomputed per query.
func refEnvelope(g *Generator) sim.EnvelopeFunc {
	if g.cfg.Growth == nil && len(g.cfg.Storms) == 0 && len(g.cfg.Joins) == 0 {
		return sim.ConstantEnvelope(g.MaxRate())
	}
	return func(t sim.Time) (float64, sim.Time) {
		until := g.segmentEnd(t)
		return refQuietBound(g, t, until) * refBurstMult(g, t, until), until
	}
}

// refQuietBound bounds the rate over [t, until) from population,
// diurnal shape and calendar.
func refQuietBound(g *Generator, t, until time.Duration) float64 {
	pop := float64(g.cfg.Students)
	if g.cfg.Growth != nil {
		pop = g.cfg.Growth.At(until)
	}
	max := pop * g.cfg.ReqPerStudentHour / 3600
	max *= math.Max(g.cfg.Diurnal.At(t), g.cfg.Diurnal.At(until))
	if g.cfg.Calendar != nil {
		max *= g.cfg.Calendar.WeekAt(t).Mult
	}
	return max
}

// refBurstMult bounds the crowd/storm/join product over [t, until).
func refBurstMult(g *Generator, t, until time.Duration) float64 {
	mult := 1.0
	for _, c := range g.cfg.Crowds {
		if c.Active(t) && c.Mult > 1 {
			mult *= c.Mult
		}
	}
	for _, s := range g.cfg.Storms {
		mult *= s.MaxOn(t, until)
	}
	for _, j := range g.cfg.Joins {
		mult *= j.MaxOn(t, until)
	}
	return mult
}

// refRate is the rate with the population computed in place.
func refRate(g *Generator, t time.Duration) float64 {
	base := g.Population(t) * g.cfg.ReqPerStudentHour / 3600
	rate := base * g.cfg.Diurnal.At(t)
	if g.cfg.Calendar != nil {
		rate *= g.cfg.Calendar.WeekAt(t).Mult
	}
	for _, c := range g.cfg.Crowds {
		if c.Active(t) {
			rate *= c.Mult
		}
	}
	for _, s := range g.cfg.Storms {
		rate *= s.MultAt(t)
	}
	for _, j := range g.cfg.Joins {
		rate *= j.MultAt(t)
	}
	return rate
}

// envelopeShapes covers every factor the per-segment envelope caches or
// recomputes: growth curves, a deadline storm, a join storm inside a
// storm ramp, flash crowds (one below 1x, which the bound skips), a
// calendar with an exam week and exam traffic.
func envelopeShapes() map[string]Config {
	return map[string]Config{
		"linear-growth": {
			Growth:            LinearGrowth(500, 5000, 3*time.Hour),
			ReqPerStudentHour: 40,
		},
		"logistic-growth": {
			Growth:            LogisticGrowth(1000, 10000, 5*time.Hour),
			ReqPerStudentHour: 20,
			Diurnal:           GlobalCohort(),
		},
		"deadline-storm": {
			Students:          5000,
			ReqPerStudentHour: 20,
			Storms:            []DeadlineStorm{{Deadline: 5 * time.Hour, Ramp: 3 * time.Hour, PeakMult: 8, Tau: 40 * time.Minute}},
		},
		"join-inside-storm-ramp": {
			Growth:            LogisticGrowth(1000, 10000, 4*time.Hour),
			ReqPerStudentHour: 20,
			Storms:            []DeadlineStorm{{Deadline: 6 * time.Hour, Ramp: 4 * time.Hour, PeakMult: 10}},
			Joins:             []JoinStorm{{Start: 3*time.Hour + 17*time.Minute, Window: 50 * time.Minute, PeakMult: 6, Decay: 7 * time.Minute}},
		},
		"flash-crowd": {
			Growth:            LinearGrowth(500, 5000, 4*time.Hour),
			ReqPerStudentHour: 20,
			Crowds: []FlashCrowd{
				{Start: 90 * time.Minute, End: 150*time.Minute + 30*time.Second, Mult: 10},
				{Start: 4 * time.Hour, End: 5 * time.Hour, Mult: 0.5},
			},
		},
		"exam-week-calendar": {
			Growth:            LinearGrowth(500, 5000, 10*24*time.Hour),
			ReqPerStudentHour: 2,
			Calendar:          NewCalendar([]Week{{Kind: Teaching, Mult: 1}, {Kind: Exams, Mult: 2.2}}),
			Joins:             []JoinStorm{{Start: 7*24*time.Hour - 20*time.Minute, Window: 45 * time.Minute, PeakMult: 4}},
		},
		"exam-traffic": {
			Growth:            LinearGrowth(500, 5000, 6*time.Hour),
			ReqPerStudentHour: 20,
			Crowds:            []FlashCrowd{{Start: time.Hour, End: 2 * time.Hour, Mult: 3, ExamTraffic: true}},
			Storms:            []DeadlineStorm{{Deadline: 4 * time.Hour, Ramp: time.Hour, PeakMult: 5, ExamTraffic: true}},
			Joins:             []JoinStorm{{Start: 3*time.Hour + 30*time.Minute, Window: 20 * time.Minute, PeakMult: 3, ExamTraffic: true}},
		},
	}
}

// queryTimes returns sorted query times over [lo, hi): a regular scan,
// every segment's first instant and the instants either side of its
// end, and random instants.
func queryTimes(g *Generator, lo, hi time.Duration, rng *sim.RNG) []time.Duration {
	var ts []time.Duration
	for t := lo; t < hi; t += 37 * time.Second {
		ts = append(ts, t)
	}
	for t := lo; t < hi; t = g.segmentEnd(t) {
		end := g.segmentEnd(t)
		ts = append(ts, t, t+1, end-1)
	}
	for i := 0; i < 2000; i++ {
		ts = append(ts, lo+time.Duration(rng.Intn(int(hi-lo))))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// horizonOf is a shape's test horizon: past its last window or ramp.
func horizonOf(name string) time.Duration {
	if name == "exam-week-calendar" {
		return 8 * 24 * time.Hour
	}
	return 8 * time.Hour
}

// TestEnvelopeMatchesPerCallFormulas: the per-segment envelope returns
// exactly the per-call formulas' bound and segment end, whether queried
// in increasing time order, as the sampler does, or in random order,
// which moves the cached segment back and forth.
func TestEnvelopeMatchesPerCallFormulas(t *testing.T) {
	for name, cfg := range envelopeShapes() {
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(11)
			ts := queryTimes(g, 0, horizonOf(name), rng)
			ref := refEnvelope(g)
			check := func(order string, env sim.EnvelopeFunc, at time.Duration) {
				t.Helper()
				max, until := env(at)
				wantMax, wantUntil := ref(at)
				if max != wantMax || until != wantUntil {
					t.Fatalf("%s order, t=%v: envelope (%v, %v), per-call formulas (%v, %v)",
						order, at, max, until, wantMax, wantUntil)
				}
			}
			inOrder := g.Envelope()
			for _, at := range ts {
				check("increasing", inOrder, at)
			}
			shuffled := g.Envelope()
			for i := len(ts) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				ts[i], ts[j] = ts[j], ts[i]
			}
			for _, at := range ts {
				check("random", shuffled, at)
			}
		})
	}
}

// TestSegmentFactorsMatchPerCallFormulas: BurstWindows reads the
// segment factors over a segment cut short at the horizon; the burst
// multiplier and the bound there equal the per-call formulas too.
func TestSegmentFactorsMatchPerCallFormulas(t *testing.T) {
	for name, cfg := range envelopeShapes() {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(13)
		for _, at := range queryTimes(g, 0, horizonOf(name), rng) {
			end := g.segmentEnd(at)
			for _, until := range []time.Duration{end, at + 1 + time.Duration(rng.Intn(int(end-at)))} {
				seg := g.segment(at, until)
				if got, want := g.burstMult(&seg, at), refBurstMult(g, at, until); got != want {
					t.Fatalf("%s [%v, %v): burstMult %v, per-call %v", name, at, until, got, want)
				}
				if got, want := g.segmentBound(&seg, at), refQuietBound(g, at, until)*refBurstMult(g, at, until); got != want {
					t.Fatalf("%s [%v, %v): segmentBound %v, per-call %v", name, at, until, got, want)
				}
			}
		}
	}
}

// TestRateAtMatchesRateAndPopulation: the rate at t is the per-call
// formula's, which scales the population at t.
func TestRateAtMatchesRateAndPopulation(t *testing.T) {
	for name, cfg := range envelopeShapes() {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range queryTimes(g, 0, horizonOf(name), sim.NewRNG(17)) {
			if got, want := g.Rate(at), refRate(g, at); got != want {
				t.Fatalf("%s t=%v: Rate %v, per-call %v", name, at, got, want)
			}
		}
	}
}

// TestStreamMatchesPerCallReference: a stream (and Generate, which
// drives one) emits exactly the arrivals of the per-call wiring.
func TestStreamMatchesPerCallReference(t *testing.T) {
	for name, cfg := range envelopeShapes() {
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A twentieth of the shape's rate keeps the streams short; the
			// exam-week shape runs from its join storm into the exam week.
			g.cfg.ReqPerStudentHour /= 20
			start, horizon := time.Duration(0), horizonOf(name)
			if horizon > 8*time.Hour {
				start, horizon = 7*24*time.Hour-time.Hour, 7*24*time.Hour+time.Hour
			}
			ref := func() []Arrival {
				rng := sim.NewRNG(23)
				proc := sim.NewNHPPEnvelope(rng.Stream("arrivals"), func(t sim.Time) float64 {
					return refRate(g, t)
				}, refEnvelope(g), noBracket, start)
				classRNG := rng.Stream("classes")
				var out []Arrival
				for {
					at, ok := proc.Next(horizon)
					if !ok {
						return out
					}
					out = append(out, Arrival{At: at, Class: g.MixAt(at).Sample(classRNG)})
				}
			}()
			var got []Arrival
			g.Generate(sim.NewRNG(23), start, horizon, func(a Arrival) { got = append(got, a) })
			sameArrivals(t, "Generate", got, ref)
		})
	}
}

func sameArrivals(t *testing.T, what string, got, want []Arrival) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference produced no arrivals", what)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// TestStreamNextHorizonIsClosed: the horizon bound is closed. A fresh
// stream asked for its first arrival with the horizon at exactly that
// arrival's time returns it.
func TestStreamNextHorizonIsClosed(t *testing.T) {
	for name, cfg := range envelopeShapes() {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, ok := g.Stream(sim.NewRNG(31), time.Minute).Next(horizonOf(name))
		if !ok {
			t.Fatalf("%s: no arrival", name)
		}
		again, ok := g.Stream(sim.NewRNG(31), time.Minute).Next(first.At)
		if !ok || again != first {
			t.Fatalf("%s: Next(%v) = (%+v, %v), want (%+v, true)", name, first.At, again, ok, first)
		}
	}
}
