package metrics

import (
	"fmt"
	"slices"
	"time"
)

// Point is one sample of a time series: a virtual timestamp and a value.
type Point struct {
	At    time.Duration
	Value float64
}

// TimeSeries accumulates (time, value) samples, e.g. arrival rate per
// minute or active VM count over a simulated day. Samples must be appended
// in nondecreasing time order.
type TimeSeries struct {
	name   string
	points []Point
}

// NewTimeSeries returns an empty series with a display name.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Add appends a sample. It panics if t precedes the latest sample, which
// would indicate a simulation ordering bug.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if n := len(ts.points); n > 0 && t < ts.points[n-1].At {
		panic(fmt.Sprintf("metrics: TimeSeries %q sample at %v before last %v",
			ts.name, t, ts.points[n-1].At))
	}
	ts.points = append(ts.points, Point{At: t, Value: v})
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Grow makes room for n more samples, so a producer that knows its
// sample count fills the series with one allocation instead of a chain
// of append reallocations.
func (ts *TimeSeries) Grow(n int) { ts.points = slices.Grow(ts.points, n) }

// Points returns a copy of the samples.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	return out
}

// Downsample returns a new series with one point per bucket of width w,
// each holding the mean of the source values in that bucket. Used to turn
// dense simulation traces into plot-sized figure series.
func (ts *TimeSeries) Downsample(w time.Duration) *TimeSeries {
	if w <= 0 {
		panic("metrics: Downsample with non-positive width")
	}
	out := NewTimeSeries(ts.name)
	if len(ts.points) == 0 {
		return out
	}
	bucket := ts.points[0].At / w
	sum, n := 0.0, 0
	flush := func(b time.Duration) {
		if n > 0 {
			out.Add(b*w, sum/float64(n))
		}
	}
	for _, p := range ts.points {
		b := p.At / w
		if b != bucket {
			flush(bucket)
			bucket, sum, n = b, 0, 0
		}
		sum += p.Value
		n++
	}
	flush(bucket)
	return out
}

// MergeSeries combines sample-aligned series point-wise into a new
// series named name: combine receives the values at one instant in
// input order and returns the merged value. All inputs must have
// identical lengths and sample times (shard series sampled on the same
// cadence are aligned by construction); MergeSeries panics otherwise,
// because misalignment means the inputs measured different instants and
// no point-wise combination is meaningful.
func MergeSeries(name string, combine func(vals []float64) float64, series ...*TimeSeries) *TimeSeries {
	out := NewTimeSeries(name)
	if len(series) == 0 {
		return out
	}
	n := series[0].Len()
	for _, ts := range series[1:] {
		if ts.Len() != n {
			panic(fmt.Sprintf("metrics: MergeSeries %q inputs have %d and %d samples",
				name, n, ts.Len()))
		}
	}
	vals := make([]float64, len(series))
	for i := 0; i < n; i++ {
		at := series[0].points[i].At
		for j, ts := range series {
			if ts.points[i].At != at {
				panic(fmt.Sprintf("metrics: MergeSeries %q sample %d at %v vs %v",
					name, i, ts.points[i].At, at))
			}
			vals[j] = ts.points[i].Value
		}
		out.Add(at, combine(vals))
	}
	return out
}

// Availability tracks up/down intervals of a component over virtual time
// and reports the availability ratio.
type Availability struct {
	up        bool
	since     time.Duration
	upTotal   time.Duration
	downTotal time.Duration
}

// NewAvailability returns a tracker that is up from time start.
func NewAvailability(start time.Duration) *Availability {
	return &Availability{up: true, since: start}
}

// SetState records a state transition at virtual time t. Repeated calls
// with the same state are ignored. Calls must have nondecreasing t.
func (a *Availability) SetState(t time.Duration, up bool) {
	if t < a.since {
		panic("metrics: Availability state change in the past")
	}
	if up == a.up {
		return
	}
	a.accumulate(t)
	a.up = up
}

func (a *Availability) accumulate(t time.Duration) {
	d := t - a.since
	if a.up {
		a.upTotal += d
	} else {
		a.downTotal += d
	}
	a.since = t
}

// Finish closes the current interval at time t and returns the tracker for
// chaining. Call once at the end of a simulation.
func (a *Availability) Finish(t time.Duration) *Availability {
	a.accumulate(t)
	return a
}

// Ratio returns uptime / (uptime + downtime), or 1 when nothing elapsed.
func (a *Availability) Ratio() float64 {
	total := a.upTotal + a.downTotal
	if total == 0 {
		return 1
	}
	return float64(a.upTotal) / float64(total)
}
