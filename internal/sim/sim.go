package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. Using time.Duration keeps unit errors out of client
// code while remaining a plain int64 internally.
type Time = time.Duration

// Event is a scheduled callback. Fn runs when the virtual clock reaches At.
//
// Event structs are pooled: the engine returns a struct to its free list
// as soon as its event is canceled, and right after its callback returns
// once it fires, so a later ScheduleAt may hand the same struct out as a
// different live event. A holder that keeps an *Event (the Every ticker,
// a self-rescheduling process, a server's pending completion) must
// therefore clear or reassign its pointer when it Cancels it and, for a
// pointer held across the fire, inside the callback before control
// returns to the engine loop. It must never Cancel a pointer whose event
// already fired or was already canceled once any new event has been
// scheduled since: that Cancel would remove the struct's new event.
type Event struct {
	// At is the virtual time at which the event fires.
	At Time
	// Fn is the callback invoked when the event fires. It must not be nil.
	Fn func()
	// Name optionally labels the event for tracing and test output.
	Name string

	seq   uint64 // insertion order, for stable FIFO among equal times
	index int    // heap position; -1 once fired or canceled
}

// Canceled reports whether the event was canceled or has already fired.
func (e *Event) Canceled() bool { return e.index < 0 }

// eventBefore is the queue's total order: (At, seq) ascending. seq is
// unique per engine, so the order is strict and the pop sequence is a
// pure function of the schedule.
func eventBefore(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// ErrStopped is returned by Run when the simulation was halted with Stop
// before the event queue drained or the horizon was reached.
var ErrStopped = errors.New("sim: engine stopped")

// maxFreeEvents caps the engine's event free list. The list only grows
// to the peak number of concurrently pending events, but a cap keeps a
// pathological burst from pinning memory for the rest of a run.
const maxFreeEvents = 1 << 16

// Engine is a single-threaded discrete-event simulator.
//
// Engines are not safe for concurrent use; a simulation is a single logical
// thread of control in which event callbacks schedule further events.
type Engine struct {
	now Time
	// queue is a 4-ary min-heap on eventBefore: the children of slot i
	// are slots 4i+1 to 4i+4, and each event's index is its slot. Four
	// children halve a binary heap's depth, so a sift moves half as many
	// events for about the same number of comparisons.
	queue   []*Event
	nextSeq uint64
	rng     *RNG
	stopped bool
	drained bool
	fired   uint64
	// free recycles fired and canceled Event structs (see the Event
	// pooling contract). Fired events are freed only after their callback
	// returns, so pointers retained across the fire stay valid for the
	// duration of the callback that must clear them.
	free []*Event
}

// NewEngine returns an engine whose root random stream is seeded with
// seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// freeEvent returns a fired or canceled event struct to the free list.
func (e *Engine) freeEvent(ev *Event) {
	ev.Fn = nil // release the closure for GC even while pooled
	ev.Name = ""
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// siftUp files ev into the hole at slot i, moving later parents down
// until ev's parent precedes it.
func (e *Engine) siftUp(ev *Event, i int) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// siftDown files ev into the hole at slot i, moving the earliest child up
// while it precedes ev.
func (e *Engine) siftDown(ev *Event, i int) {
	q := e.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if eventBefore(q[c], q[best]) {
				best = c
			}
		}
		if !eventBefore(q[best], ev) {
			break
		}
		q[i] = q[best]
		q[i].index = i
		i = best
	}
	q[i] = ev
	ev.index = i
}

// remove takes the event at slot i out of the queue, refills the hole
// with the last event and returns the removed one with index -1.
func (e *Engine) remove(i int) *Event {
	ev := e.queue[i]
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i < n {
		if i > 0 && eventBefore(last, e.queue[(i-1)/4]) {
			e.siftUp(last, i)
		} else {
			e.siftDown(last, i)
		}
	}
	ev.index = -1
	return ev
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// RNG returns the engine's root random stream.
func (e *Engine) RNG() *RNG { return e.rng }

// Stream derives a named, independent random stream from the engine seed.
// The same (seed, name) pair always yields the same stream.
func (e *Engine) Stream(name string) *RNG { return e.rng.Stream(name) }

// Schedule enqueues fn to run after delay d from the current virtual time.
// A negative delay is treated as zero. The returned Event may be passed to
// Cancel.
func (e *Engine) Schedule(d Time, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, name, fn)
}

// ScheduleAt enqueues fn to run at absolute virtual time at. Times in the
// past are clamped to the current time (the event fires next, after already
// queued events at the current instant).
func (e *Engine) ScheduleAt(at Time, name string, fn func()) *Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil Fn")
	}
	if at < e.now {
		at = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	*ev = Event{At: at, Fn: fn, Name: name, seq: e.nextSeq}
	e.nextSeq++
	e.queue = append(e.queue, ev)
	e.siftUp(ev, len(e.queue)-1)
	return ev
}

// Cancel removes a pending event from the queue and recycles its struct at
// once. Canceling an event that already fired (or was already canceled) is
// a no-op — but see Event's pooling contract: a pointer held past its
// event's fire or cancel must not be Canceled again once any newer event
// has been scheduled.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.freeEvent(e.remove(ev.index))
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event, advancing the clock.
// It reports false when the queue is empty. The event struct is recycled
// after its callback returns, so any retained pointer to it must be
// cleared or reassigned inside the callback (see Event).
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.remove(0)
	if ev.At > e.now {
		e.now = ev.At
	}
	e.fired++
	ev.Fn()
	e.freeEvent(ev)
	return true
}

// Run executes events until the queue drains, the virtual clock passes
// horizon, or Stop is called. A zero horizon means "no horizon" (run until
// the queue drains). It returns ErrStopped if halted by Stop.
//
// When Run returns nil the simulation either drained its queue or hit the
// horizon with future-dated events still pending; Drained distinguishes
// the two.
func (e *Engine) Run(horizon Time) error {
	e.stopped = false
	e.drained = false
	for len(e.queue) > 0 {
		if e.stopped {
			return ErrStopped
		}
		if horizon > 0 && e.queue[0].At > horizon {
			e.now = horizon
			return nil
		}
		e.Step()
	}
	e.drained = true
	if horizon > 0 && e.now < horizon {
		e.now = horizon
	}
	return nil
}

// Drained reports whether the most recent Run returned because the event
// queue emptied, as opposed to stopping at the horizon with future-dated
// events still queued or being halted by Stop. It is false before the
// first Run. Note that Pending alone cannot distinguish
// the cases: a periodic Every ticker keeps the queue non-empty forever,
// and a queue may also drain exactly at the horizon.
func (e *Engine) Drained() bool { return e.drained }

// Every schedules fn to run periodically, first after period, then every
// period thereafter, until the returned stop function is called or the
// simulation ends. Periods must be positive.
func (e *Engine) Every(period Time, name string, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	stopped := false
	var tick func()
	var pending *Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = e.Schedule(period, name, tick)
		}
	}
	pending = e.Schedule(period, name, tick)
	return func() {
		if stopped {
			return // idempotent: pending may have been recycled since
		}
		stopped = true
		e.Cancel(pending)
	}
}

// State is a portable engine snapshot for warm-starting: the minimal
// kernel state a hybrid-fidelity run must carry across a fluid⇄DES
// boundary. Domain state (fleets, queues, caches) lives above the
// kernel and is re-materialized by the scenario layer; the kernel's
// only contribution to the stitch is the virtual clock, so State is
// deliberately small and copyable.
type State struct {
	// Now is the virtual clock position the importing engine starts at.
	Now Time
}

// Export snapshots the engine's warm-start state at the current instant.
func (e *Engine) Export() State { return State{Now: e.now} }

// Import warps a fresh engine to a previously exported (or constructed)
// state, so a DES window opening mid-horizon sees the true virtual time
// — absolute-time schedules (ScheduleAt, calendar lookups) then land
// where the fluid model left off instead of being clamped to zero.
//
// Import is only valid on a pristine engine: nothing scheduled, nothing
// fired, clock at zero. Importing into an engine that already has
// history would silently reorder its (At, seq) stream, so that is an
// error rather than a best-effort warp.
func (e *Engine) Import(s State) error {
	if s.Now < 0 {
		return fmt.Errorf("sim: Import with negative clock %v", s.Now)
	}
	if e.now != 0 || e.nextSeq != 0 || e.fired != 0 || len(e.queue) != 0 {
		return errors.New("sim: Import into a non-fresh engine (events scheduled, fired, or clock moved)")
	}
	e.now = s.Now
	return nil
}

// Seconds converts a float64 second count to virtual Time.
func Seconds(s float64) Time {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		panic("sim: Seconds of NaN or Inf")
	}
	return Time(s * float64(time.Second))
}

// ToSeconds converts virtual Time to float64 seconds.
func ToSeconds(t Time) float64 { return float64(t) / float64(time.Second) }
