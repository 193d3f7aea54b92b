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
//
// Only the struct is pooled, not its callback. Fn may be a method value
// built once and scheduled many times (a server's completion, a pooled
// request's delivery): scheduling it then allocates nothing, and the
// rules above for a holder's *Event do not change.
//
// Reschedule moves a pending event in place: the struct stays the
// holder's, and the pointer stays valid, until the event fires or is
// canceled. An event scheduled in the engine's slot (ScheduleSlot) is
// never handed out, so no holder keeps a pointer to it.
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

// eventBefore is the queue's total order: (At, seq) ascending. seq is
// unique per engine, so the order is strict and the pop sequence is a
// pure function of the schedule.
func eventBefore(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

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
	queue []*Event
	// slot is a second place an event can wait, beside the heap, for a
	// caller that keeps one event pending at a time (ScheduleSlot). It
	// holds at most one event, pending while slotted is true, and that
	// event takes its turn in the same (At, seq) order as the heap's.
	slot    Event
	slotted bool
	nextSeq uint64
	rng     *RNG
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

// ScheduleSlot schedules fn at absolute virtual time at, like
// ScheduleAt, but in the engine's one-event slot instead of its heap.
// The event takes its seq now and fires in the same (At, seq) order as
// any other event, is counted by Fired, and stays pending past a Run
// horizon like one in the heap; the slot only spares it the heap's push
// and pop. It suits a caller that keeps exactly one such event pending
// and schedules the next from the callback of the last, as the
// scenario's arrival pump does. The slot event cannot be canceled or
// rescheduled. ScheduleSlot panics on a nil fn or while the slot holds a
// pending event.
func (e *Engine) ScheduleSlot(at Time, name string, fn func()) {
	if fn == nil {
		panic("sim: ScheduleSlot with nil Fn")
	}
	if e.slotted {
		panic("sim: ScheduleSlot while the slot holds a pending event")
	}
	if at < e.now {
		at = e.now
	}
	e.slot = Event{At: at, Fn: fn, Name: name, seq: e.nextSeq, index: -1}
	e.nextSeq++
	e.slotted = true
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

// Reschedule moves the pending event ev to absolute virtual time at
// (clamped to the current time) with a fresh seq, without taking it out
// of the queue. The event then fires exactly where Cancel followed by
// ScheduleAt with the same Fn would have put it, and the holder keeps
// its pointer. Rescheduling an event that is not pending (fired,
// canceled, or never scheduled) is a bug, and Reschedule panics.
func (e *Engine) Reschedule(ev *Event, at Time) {
	if ev == nil || ev.index < 0 {
		panic("sim: Reschedule of an event that is not pending")
	}
	if at < e.now {
		at = e.now
	}
	ev.At, ev.seq = at, e.nextSeq
	e.nextSeq++
	if i := ev.index; i > 0 && eventBefore(ev, e.queue[(i-1)/4]) {
		e.siftUp(ev, i)
	} else {
		e.siftDown(ev, i)
	}
}

// peek returns the earliest pending event, in the slot or at the heap's
// root, or nil when none is pending.
func (e *Engine) peek() *Event {
	if e.slotted && (len(e.queue) == 0 || eventBefore(&e.slot, e.queue[0])) {
		return &e.slot
	}
	if len(e.queue) == 0 {
		return nil
	}
	return e.queue[0]
}

// Step executes the single earliest pending event, advancing the clock.
// It reports false when no event is pending. A heap event's struct is
// recycled after its callback returns, so any retained pointer to it
// must be cleared or reassigned inside the callback (see Event). The
// slot is emptied before its event's callback runs, so the callback may
// fill it again.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	if ev.At > e.now {
		e.now = ev.At
	}
	e.fired++
	if ev == &e.slot {
		fn := ev.Fn
		ev.Fn = nil
		e.slotted = false
		fn()
		return true
	}
	e.remove(0)
	ev.Fn()
	e.freeEvent(ev)
	return true
}

// Run executes events until none is pending or the virtual clock passes
// horizon. A zero horizon means "no horizon" (run until the queue
// drains). With a positive horizon the clock ends at the horizon; an
// event dated exactly at the horizon fires, and events dated after it
// stay pending for a later Run.
func (e *Engine) Run(horizon Time) {
	for {
		ev := e.peek()
		if ev == nil {
			break
		}
		if horizon > 0 && ev.At > horizon {
			e.now = horizon
			return
		}
		e.Step()
	}
	if horizon > 0 && e.now < horizon {
		e.now = horizon
	}
}

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

// StartAt warps a fresh engine's clock to t, so a DES window opening
// mid-horizon sees the true virtual time — absolute-time schedules
// (ScheduleAt, calendar lookups) then land where the fluid model left
// off instead of being clamped to zero. The clock is the only kernel
// state a hybrid-fidelity run carries across a fluid⇄DES boundary;
// domain state (fleets, queues, caches) is re-materialized by the
// scenario layer.
//
// StartAt is only valid on a pristine engine: nothing scheduled (in the
// heap or the slot), nothing fired, clock at zero. Warping an engine
// that already has history would silently reorder its (At, seq)
// stream, so that is an error rather than a best-effort warp.
func (e *Engine) StartAt(t Time) error {
	if t < 0 {
		return fmt.Errorf("sim: StartAt with negative clock %v", t)
	}
	if e.now != 0 || e.nextSeq != 0 || e.fired != 0 || len(e.queue) != 0 || e.slotted {
		return errors.New("sim: StartAt on a non-fresh engine (events scheduled, fired, or clock moved)")
	}
	e.now = t
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
