package sim

import (
	"math"
	"testing"
	"time"
)

// noBracket is the trivial bracket: it settles no candidate, so the
// sampler evaluates the rate at every one.
func noBracket(Time) (float64, float64) { return 0, math.Inf(1) }

func TestNHPPHomogeneousRateMatchesExpectation(t *testing.T) {
	r := NewRNG(51)
	const rate = 10.0 // arrivals/s
	p := NewNHPPEnvelope(r, func(Time) float64 { return rate }, ConstantEnvelope(rate), noBracket, 0)
	horizon := 1000 * time.Second
	n := generate(p, horizon, func(Time) {})
	want := rate * ToSeconds(horizon)
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Fatalf("arrivals = %d, want ~%v", n, want)
	}
}

func TestNHPPArrivalsStrictlyIncreaseAndRespectHorizon(t *testing.T) {
	r := NewRNG(53)
	p := NewNHPPEnvelope(r, func(t Time) float64 { return 5 + 4*math.Sin(ToSeconds(t)/100) }, ConstantEnvelope(10), noBracket, 0)
	horizon := 500 * time.Second
	last := Time(-1)
	generate(p, horizon, func(at Time) {
		if at <= last {
			t.Fatalf("non-increasing arrival: %v after %v", at, last)
		}
		if at > horizon {
			t.Fatalf("arrival %v beyond horizon %v", at, horizon)
		}
		last = at
	})
}

func TestNHPPTracksTimeVaryingRate(t *testing.T) {
	// Rate is 20/s in the first half, 2/s in the second half. The ratio of
	// arrivals must be ~10:1.
	r := NewRNG(57)
	half := 500 * time.Second
	rate := func(t Time) float64 {
		if t < half {
			return 20
		}
		return 2
	}
	p := NewNHPPEnvelope(r, rate, ConstantEnvelope(20), noBracket, 0)
	var first, second int
	generate(p, 2*half, func(at Time) {
		if at < half {
			first++
		} else {
			second++
		}
	})
	ratio := float64(first) / float64(second)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("ratio = %v, want ~10 (first=%d second=%d)", ratio, first, second)
	}
}

func TestNHPPZeroRatePeriodsProduceNoArrivals(t *testing.T) {
	r := NewRNG(59)
	// Zero rate everywhere except an active window.
	active := func(t Time) bool { return t >= 100*time.Second && t < 200*time.Second }
	p := NewNHPPEnvelope(r, func(t Time) float64 {
		if active(t) {
			return 10
		}
		return 0
	}, ConstantEnvelope(10), noBracket, 0)
	generate(p, 300*time.Second, func(at Time) {
		if !active(at) {
			t.Fatalf("arrival at %v outside active window", at)
		}
	})
}

func TestNHPPDeterminism(t *testing.T) {
	gen := func() []Time {
		r := NewRNG(61)
		p := NewNHPPEnvelope(r, func(Time) float64 { return 3 }, ConstantEnvelope(3), noBracket, 0)
		var out []Time
		generate(p, 100*time.Second, func(at Time) { out = append(out, at) })
		return out
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestNHPPPanics(t *testing.T) {
	r := NewRNG(1)
	rate := func(Time) float64 { return 1 }
	for name, fn := range map[string]func(){
		"nil rng":      func() { NewNHPPEnvelope(nil, rate, ConstantEnvelope(1), noBracket, 0) },
		"nil rate":     func() { NewNHPPEnvelope(r, nil, ConstantEnvelope(1), noBracket, 0) },
		"nil envelope": func() { NewNHPPEnvelope(r, rate, nil, noBracket, 0) },
		"nil bracket":  func() { NewNHPPEnvelope(r, rate, ConstantEnvelope(1), nil, 0) },
		"stuck envelope": func() {
			p := NewNHPPEnvelope(NewRNG(1), rate, func(t Time) (float64, Time) { return 1, t }, noBracket, 0)
			p.Next(time.Second)
		},
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

// stepEnvelope bounds a 20-then-2 step rate tightly: segment one ends at
// the step, segment two never ends.
func stepEnvelope(step Time) EnvelopeFunc {
	return func(t Time) (float64, Time) {
		if t < step {
			return 20, step
		}
		return 2, MaxTime
	}
}

func TestNHPPEnvelopeTracksPiecewiseRate(t *testing.T) {
	// Same step rate as TestNHPPTracksTimeVaryingRate, but bounded by a
	// tight piecewise envelope instead of the global max. The arrival
	// ratio must still be ~10:1, and — the point of the envelope —
	// thinning must accept essentially every candidate, where the flat
	// bound rejects ~90% of them in the quiet half.
	r := NewRNG(57)
	half := 500 * time.Second
	rate := func(t Time) float64 {
		if t < half {
			return 20
		}
		return 2
	}
	p := NewNHPPEnvelope(r, rate, stepEnvelope(half), noBracket, 0)
	var first, second int
	generate(p, 2*half, func(at Time) {
		if at < half {
			first++
		} else {
			second++
		}
	})
	ratio := float64(first) / float64(second)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("ratio = %v, want ~10 (first=%d second=%d)", ratio, first, second)
	}
	if proposed, accepted, _ := p.Counts(); proposed == 0 || accepted != proposed {
		t.Fatalf("tight envelope should accept every candidate: accepted %d of %d",
			accepted, proposed)
	}
}

func TestNHPPEnvelopeSilentSegmentsSkipWithoutRandomness(t *testing.T) {
	// A zero-max leading segment must produce no arrivals and consume no
	// randomness: the stream started after the silent window must be
	// identical to the stream that skipped it.
	gen := func(env EnvelopeFunc, start Time) []Time {
		r := NewRNG(59)
		p := NewNHPPEnvelope(r, func(Time) float64 { return 5 }, env, noBracket, start)
		var out []Time
		generate(p, 200*time.Second, func(at Time) { out = append(out, at) })
		return out
	}
	silent := func(t Time) (float64, Time) {
		if t < 100*time.Second {
			return 0, 100 * time.Second
		}
		return 5, MaxTime
	}
	skipped := gen(silent, 0)
	direct := gen(ConstantEnvelope(5), 100*time.Second)
	if len(skipped) == 0 {
		t.Fatal("no arrivals after the silent window")
	}
	if len(skipped) != len(direct) {
		t.Fatalf("silent segment consumed randomness: %d vs %d arrivals", len(skipped), len(direct))
	}
	for i := range skipped {
		if skipped[i] != direct[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, skipped[i], direct[i])
		}
		if skipped[i] < 100*time.Second {
			t.Fatalf("arrival %v inside the silent window", skipped[i])
		}
	}
}

func TestNHPPEnvelopeDeterminism(t *testing.T) {
	gen := func() []Time {
		r := NewRNG(61)
		p := NewNHPPEnvelope(r, func(t Time) float64 {
			if t < 500*time.Second {
				return 18
			}
			return 1.5
		}, stepEnvelope(500*time.Second), noBracket, 0)
		var out []Time
		generate(p, 1000*time.Second, func(at Time) { out = append(out, at) })
		return out
	}
	a, b := gen(), gen()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

// TestNHPPBracketSettlesCandidatesExactly: a bracket changes how many
// rates the sampler evaluates, never which candidates it accepts. A
// tight bracket around a smooth rate settles almost every candidate, a
// loose one few, and a bracket that is the rate itself (lo == hi)
// settles every one; all three emit the trivial bracket's arrivals.
func TestNHPPBracketSettlesCandidatesExactly(t *testing.T) {
	rate := func(t Time) float64 { return 5 + 4*math.Sin(ToSeconds(t)/100) }
	gen := func(bracket BracketFunc) ([]Time, uint64, uint64) {
		p := NewNHPPEnvelope(NewRNG(67), rate, ConstantEnvelope(10), bracket, 0)
		var out []Time
		generate(p, 2000*time.Second, func(at Time) { out = append(out, at) })
		proposed, _, evaluated := p.Counts()
		return out, proposed, evaluated
	}
	want, proposed, evaluated := gen(noBracket)
	if evaluated != proposed {
		t.Fatalf("trivial bracket evaluated %d rates for %d candidates", evaluated, proposed)
	}
	for _, c := range []struct {
		name    string
		bracket BracketFunc
		// maxShare bounds the share of candidates evaluated.
		maxShare float64
	}{
		// 0.008 wide under a bound of 10: 0.08% of candidates undecided.
		{"tight", func(t Time) (float64, float64) { return rate(t) - 0.004, rate(t) + 0.004 }, 0.002},
		{"loose", func(Time) (float64, float64) { return 1, 9 }, 0.81},
		{"exact", func(t Time) (float64, float64) { return rate(t), rate(t) }, 0},
	} {
		got, gotProposed, gotEvaluated := gen(c.bracket)
		if len(got) != len(want) || gotProposed != proposed {
			t.Fatalf("%s: %d arrivals of %d candidates, trivial bracket %d of %d",
				c.name, len(got), gotProposed, len(want), proposed)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: arrival %d at %v, trivial bracket %v", c.name, i, got[i], want[i])
			}
		}
		if share := float64(gotEvaluated) / float64(gotProposed); share > c.maxShare {
			t.Errorf("%s: evaluated %d rates for %d candidates (%.4f), want <= %v",
				c.name, gotEvaluated, gotProposed, share, c.maxShare)
		}
	}
}

// generate calls Next until horizon, invoking arrive for each arrival,
// and returns the number of arrivals.
func generate(p *NHPP, horizon Time, arrive func(t Time)) int {
	n := 0
	for {
		t, ok := p.Next(horizon)
		if !ok {
			return n
		}
		arrive(t)
		n++
	}
}
