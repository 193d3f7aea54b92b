package sim

import (
	"math"
	"testing"
	"time"
)

func TestNHPPHomogeneousRateMatchesExpectation(t *testing.T) {
	r := NewRNG(51)
	const rate = 10.0 // arrivals/s
	p := NewNHPPEnvelope(r, func(Time) float64 { return rate }, ConstantEnvelope(rate), 0)
	horizon := 1000 * time.Second
	n := p.GenerateInto(horizon, func(Time) {})
	want := rate * ToSeconds(horizon)
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Fatalf("arrivals = %d, want ~%v", n, want)
	}
}

func TestNHPPArrivalsStrictlyIncreaseAndRespectHorizon(t *testing.T) {
	r := NewRNG(53)
	p := NewNHPPEnvelope(r, func(t Time) float64 { return 5 + 4*math.Sin(ToSeconds(t)/100) }, ConstantEnvelope(10), 0)
	horizon := 500 * time.Second
	last := Time(-1)
	p.GenerateInto(horizon, func(at Time) {
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
	p := NewNHPPEnvelope(r, rate, ConstantEnvelope(20), 0)
	var first, second int
	p.GenerateInto(2*half, func(at Time) {
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
	}, ConstantEnvelope(10), 0)
	p.GenerateInto(300*time.Second, func(at Time) {
		if !active(at) {
			t.Fatalf("arrival at %v outside active window", at)
		}
	})
}

func TestNHPPDeterminism(t *testing.T) {
	gen := func() []Time {
		r := NewRNG(61)
		p := NewNHPPEnvelope(r, func(Time) float64 { return 3 }, ConstantEnvelope(3), 0)
		var out []Time
		p.GenerateInto(100*time.Second, func(at Time) { out = append(out, at) })
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
		"nil rng":      func() { NewNHPPEnvelope(nil, rate, ConstantEnvelope(1), 0) },
		"nil rate":     func() { NewNHPPEnvelope(r, nil, ConstantEnvelope(1), 0) },
		"nil envelope": func() { NewNHPPEnvelope(r, rate, nil, 0) },
		"stuck envelope": func() {
			p := NewNHPPEnvelope(NewRNG(1), rate, func(t Time) (float64, Time) { return 1, t }, 0)
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
	p := NewNHPPEnvelope(r, rate, stepEnvelope(half), 0)
	var first, second int
	p.GenerateInto(2*half, func(at Time) {
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
	if p.Proposed() == 0 || p.Accepted() != p.Proposed() {
		t.Fatalf("tight envelope should accept every candidate: accepted %d of %d",
			p.Accepted(), p.Proposed())
	}
}

func TestNHPPEnvelopeSilentSegmentsSkipWithoutRandomness(t *testing.T) {
	// A zero-max leading segment must produce no arrivals and consume no
	// randomness: the stream started after the silent window must be
	// identical to the stream that skipped it.
	gen := func(env EnvelopeFunc, start Time) []Time {
		r := NewRNG(59)
		p := NewNHPPEnvelope(r, func(Time) float64 { return 5 }, env, start)
		var out []Time
		p.GenerateInto(200*time.Second, func(at Time) { out = append(out, at) })
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
		}, stepEnvelope(500*time.Second), 0)
		var out []Time
		p.GenerateInto(1000*time.Second, func(at Time) { out = append(out, at) })
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
