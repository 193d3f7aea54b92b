package sim

import (
	"fmt"
	"testing"
	"time"
)

// slotWorkload runs one engine through a request-shaped workload: an
// arrival chain that schedules each arrival from the previous one's
// callback, servers whose pending completion each arrival may move,
// and one-off events that may cancel a completion. With fast set it
// uses the slot for arrivals and Reschedule for moved completions; the
// heap-only reference uses ScheduleAt, and Cancel then ScheduleAt. Times
// are whole milliseconds, so equal-time ties are common.
type slotWorkload struct {
	e    *Engine
	rng  *RNG
	fast bool
	log  []string
	// completion holds each server's pending completion, nil when idle.
	completion []*Event
	arrivals   int
	// atHorizon counts arrivals that fired exactly at a Run horizon.
	atHorizon int
	horizon   Time
}

func newSlotWorkload(fast bool) *slotWorkload {
	return &slotWorkload{e: NewEngine(1), rng: NewRNG(77), fast: fast, completion: make([]*Event, 8)}
}

// delay is 0–4 ms, or occasionally up to 40 ms.
func (d *slotWorkload) delay() Time {
	if d.rng.Intn(8) == 0 {
		return Time(d.rng.Intn(41)) * time.Millisecond
	}
	return Time(d.rng.Intn(5)) * time.Millisecond
}

func (d *slotWorkload) scheduleArrival() {
	at := d.e.Now() + d.delay()
	if d.fast {
		d.e.ScheduleSlot(at, "arrival", d.arrive)
	} else {
		d.e.ScheduleAt(at, "arrival", d.arrive)
	}
}

func (d *slotWorkload) arrive() {
	d.arrivals++
	d.log = append(d.log, fmt.Sprintf("arrival%d@%d", d.arrivals, d.e.Now()))
	if d.e.Now() == d.horizon {
		d.atHorizon++
	}
	if d.rng.Intn(4) != 0 {
		i := d.rng.Intn(len(d.completion))
		at := d.e.Now() + d.delay()
		switch ev := d.completion[i]; {
		case ev == nil:
			d.completion[i] = d.e.ScheduleAt(at, "complete", d.completeFn(i))
		case d.fast:
			d.e.Reschedule(ev, at)
		default:
			d.e.Cancel(ev)
			d.completion[i] = d.e.ScheduleAt(at, "complete", d.completeFn(i))
		}
	}
	if d.rng.Intn(6) == 0 {
		n := d.arrivals
		d.e.ScheduleAt(d.e.Now()+d.delay(), "other", func() {
			d.log = append(d.log, fmt.Sprintf("other%d@%d", n, d.e.Now()))
			if i := d.rng.Intn(len(d.completion)); d.completion[i] != nil && d.rng.Intn(3) == 0 {
				d.log = append(d.log, fmt.Sprintf("cancel%d", i))
				d.e.Cancel(d.completion[i])
				d.completion[i] = nil
			}
		})
	}
	if d.arrivals < 30000 {
		d.scheduleArrival()
	}
}

func (d *slotWorkload) completeFn(i int) func() {
	return func() {
		d.completion[i] = nil
		d.log = append(d.log, fmt.Sprintf("complete%d@%d", i, d.e.Now()))
		if d.rng.Intn(2) == 0 {
			d.completion[i] = d.e.ScheduleAt(d.e.Now()+d.delay(), "complete", d.completeFn(i))
		}
	}
}

// run drives the workload in 10 ms Run slices, logging the clock and
// the fired count at each horizon, then drains.
func (d *slotWorkload) run() {
	d.scheduleArrival()
	for d.e.peek() != nil && d.horizon < 200*time.Second {
		d.horizon += 10 * time.Millisecond
		d.e.Run(d.horizon)
		d.log = append(d.log, fmt.Sprintf("horizon@%d fired=%d", d.e.Now(), d.e.Fired()))
	}
	d.e.Run(0)
}

// TestSlotAndRescheduleMatchHeapOnly: arrivals through the slot and
// completions moved by Reschedule fire in exactly the order, at exactly
// the times, of a heap-only engine that schedules every arrival and
// moves every completion by Cancel and ScheduleAt — across equal-time
// ties, cancels, and Run horizons that arrivals land on.
func TestSlotAndRescheduleMatchHeapOnly(t *testing.T) {
	fast, ref := newSlotWorkload(true), newSlotWorkload(false)
	fast.run()
	ref.run()
	if len(fast.log) != len(ref.log) {
		t.Fatalf("log length: slot %d, heap-only %d", len(fast.log), len(ref.log))
	}
	for i := range fast.log {
		if fast.log[i] != ref.log[i] {
			t.Fatalf("logs diverge at %d: slot %q, heap-only %q", i, fast.log[i], ref.log[i])
		}
	}
	if fast.e.Fired() != ref.e.Fired() || fast.e.Now() != ref.e.Now() {
		t.Fatalf("slot engine fired %d by %v, heap-only %d by %v",
			fast.e.Fired(), fast.e.Now(), ref.e.Fired(), ref.e.Now())
	}
	if fast.arrivals != 30000 || fast.atHorizon == 0 {
		t.Fatalf("workload too tame: %d arrivals, %d at a Run horizon", fast.arrivals, fast.atHorizon)
	}
}

// TestSlotEventAtRunHorizon: a slot event dated exactly at the horizon
// fires; one dated after it stays pending, with the clock on the
// horizon, until a later Run.
func TestSlotEventAtRunHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.ScheduleSlot(time.Hour, "arrival", func() { fired++ })
	e.Run(time.Hour)
	if fired != 1 || e.Fired() != 1 || e.Now() != time.Hour {
		t.Fatalf("at the horizon: fired %d, Fired() %d, Now %v", fired, e.Fired(), e.Now())
	}
	e.ScheduleSlot(time.Hour+time.Nanosecond, "arrival", func() { fired++ })
	e.Run(time.Hour)
	if fired != 1 || e.Now() != time.Hour || e.peek() == nil {
		t.Fatalf("past the horizon: fired %d, Now %v, pending %v", fired, e.Now(), e.peek() != nil)
	}
	e.Run(0)
	if fired != 2 || e.Now() != time.Hour+time.Nanosecond || e.Step() {
		t.Fatalf("after drain: fired %d, Now %v", fired, e.Now())
	}
}

// TestSlotAndReschedulePanics: a second slot event while one is pending,
// and a Reschedule of an event that is not pending, are bugs.
func TestSlotAndReschedulePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	e.ScheduleSlot(time.Second, "arrival", func() {})
	mustPanic("second slot event", func() { e.ScheduleSlot(2*time.Second, "arrival", func() {}) })
	mustPanic("nil slot fn", func() { NewEngine(1).ScheduleSlot(0, "arrival", nil) })

	fired := e.ScheduleAt(time.Second, "fired", func() {})
	canceled := e.ScheduleAt(time.Second, "canceled", func() {})
	e.Cancel(canceled)
	mustPanic("canceled event", func() { e.Reschedule(canceled, 3*time.Second) })
	e.Run(0)
	mustPanic("fired event", func() { e.Reschedule(fired, 3*time.Second) })
	mustPanic("nil event", func() { e.Reschedule(nil, 3*time.Second) })
}
