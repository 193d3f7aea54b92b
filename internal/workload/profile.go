package workload

import (
	"fmt"
	"math"
	"time"
)

// DiurnalProfile holds 24 hourly load multipliers (relative to the daily
// mean) and interpolates linearly between hour marks.
type DiurnalProfile struct {
	hours [24]float64
}

// NewDiurnalProfile validates and wraps 24 hourly multipliers.
func NewDiurnalProfile(hours [24]float64) *DiurnalProfile {
	for i, h := range hours {
		if h < 0 {
			panic(fmt.Sprintf("workload: negative multiplier %v at hour %d", h, i))
		}
	}
	return &DiurnalProfile{hours: hours}
}

// CampusDiurnal is the default academic day: near-silence overnight, a
// morning ramp, a late-morning lecture peak, an after-dinner homework
// peak, tapering toward midnight. Multipliers average ~1.0.
func CampusDiurnal() *DiurnalProfile {
	return NewDiurnalProfile([24]float64{
		0.15, 0.08, 0.05, 0.04, 0.05, 0.10, // 00-05
		0.30, 0.60, 1.10, 1.60, 1.90, 1.80, // 06-11
		1.40, 1.30, 1.50, 1.60, 1.40, 1.20, // 12-17
		1.30, 1.70, 2.00, 1.80, 1.20, 0.60, // 18-23
	})
}

// FlatDiurnal returns an always-1.0 profile for analytic tests.
func FlatDiurnal() *DiurnalProfile {
	var h [24]float64
	for i := range h {
		h[i] = 1
	}
	return NewDiurnalProfile(h)
}

// At returns the multiplier at a time of day, interpolating linearly
// between hourly anchors (wrapping midnight).
func (p *DiurnalProfile) At(sinceMidnight time.Duration) float64 {
	const day = 24 * time.Hour
	t := sinceMidnight % day
	if t < 0 {
		t += day
	}
	hour := int(t / time.Hour)
	frac := float64(t%time.Hour) / float64(time.Hour)
	next := (hour + 1) % 24
	return p.hours[hour]*(1-frac) + p.hours[next]*frac
}

// Peak returns the largest hourly multiplier.
func (p *DiurnalProfile) Peak() float64 {
	max := 0.0
	for _, h := range p.hours {
		if h > max {
			max = h
		}
	}
	return max
}

// Mean returns the average hourly multiplier.
func (p *DiurnalProfile) Mean() float64 {
	sum := 0.0
	for _, h := range p.hours {
		sum += h
	}
	return sum / 24
}

// WeekKind classifies a semester week.
type WeekKind int

// Week kinds.
const (
	Teaching WeekKind = iota + 1
	Exams
	Vacation
)

// String returns the kind name.
func (k WeekKind) String() string {
	switch k {
	case Teaching:
		return "teaching"
	case Exams:
		return "exams"
	case Vacation:
		return "vacation"
	default:
		return fmt.Sprintf("WeekKind(%d)", int(k))
	}
}

// Week is one calendar week with a load multiplier on top of the diurnal
// shape.
type Week struct {
	Kind WeekKind
	// Mult scales the base load for the whole week (exam crunch > 1,
	// vacation << 1).
	Mult float64
}

// Calendar is a sequence of weeks starting at simulation time zero.
type Calendar struct {
	weeks []Week
}

// NewCalendar wraps a week sequence; at least one week is required.
func NewCalendar(weeks []Week) *Calendar {
	if len(weeks) == 0 {
		panic("workload: NewCalendar with no weeks")
	}
	for i, w := range weeks {
		if w.Mult < 0 {
			panic(fmt.Sprintf("workload: week %d has negative multiplier", i))
		}
	}
	return &Calendar{weeks: append([]Week(nil), weeks...)}
}

// StandardSemester is an 18-week term: orientation, 6 teaching weeks, a
// midterm exam week, 6 more teaching weeks, a revision week, two final
// exam weeks ramping to the semester's peak load, then vacation.
func StandardSemester() *Calendar {
	weeks := []Week{{Kind: Teaching, Mult: 0.6}} // orientation
	for i := 0; i < 6; i++ {
		weeks = append(weeks, Week{Kind: Teaching, Mult: 1.0})
	}
	weeks = append(weeks, Week{Kind: Exams, Mult: 1.8}) // midterms
	for i := 0; i < 6; i++ {
		weeks = append(weeks, Week{Kind: Teaching, Mult: 1.0})
	}
	weeks = append(weeks,
		Week{Kind: Teaching, Mult: 1.3},  // revision
		Week{Kind: Exams, Mult: 2.0},     // finals 1
		Week{Kind: Exams, Mult: 2.4},     // finals 2 (peak)
		Week{Kind: Vacation, Mult: 0.05}, // term break
	)
	return NewCalendar(weeks)
}

// Len returns the number of weeks.
func (c *Calendar) Len() int { return len(c.weeks) }

// Duration returns the calendar's total span.
func (c *Calendar) Duration() time.Duration {
	return time.Duration(len(c.weeks)) * 7 * 24 * time.Hour
}

// WeekAt returns the week covering virtual time t; past the end, the last
// week repeats (steady state).
func (c *Calendar) WeekAt(t time.Duration) Week {
	idx := int(t / (7 * 24 * time.Hour))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.weeks) {
		idx = len(c.weeks) - 1
	}
	return c.weeks[idx]
}

// PeakMult returns the largest weekly multiplier.
func (c *Calendar) PeakMult() float64 {
	max := 0.0
	for _, w := range c.weeks {
		if w.Mult > max {
			max = w.Mult
		}
	}
	return max
}

// FlashCrowd is a bounded window with an extra load multiplier, modeling
// a scheduled online exam where the whole cohort arrives at once.
type FlashCrowd struct {
	Start time.Duration
	End   time.Duration
	// Mult multiplies the base rate inside the window (e.g. 10).
	Mult float64
	// ExamTraffic switches the request mix to ExamMix inside the window.
	ExamTraffic bool
}

// Active reports whether t falls inside the window.
func (f FlashCrowd) Active(t time.Duration) bool {
	return t >= f.Start && t < f.End
}

// sanity validates a crowd definition.
func (f FlashCrowd) sanity() error {
	if f.End <= f.Start {
		return fmt.Errorf("workload: flash crowd ends (%v) before it starts (%v)", f.End, f.Start)
	}
	if !(f.Mult > 0) || math.IsInf(f.Mult, 1) {
		return fmt.Errorf("workload: flash crowd Mult = %v, need a finite value > 0", f.Mult)
	}
	return nil
}
