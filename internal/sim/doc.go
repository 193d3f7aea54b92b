// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate every other elearncloud package runs on. It
// offers a virtual clock, an event queue with stable FIFO ordering among
// simultaneous events, seeded and splittable random-number streams, a small
// library of probability distributions, and a non-homogeneous Poisson
// process generator used by the workload package.
//
// The event queue is a 4-ary min-heap on (At, seq), where seq is the
// order of scheduling, plus a one-event slot beside it
// (Engine.ScheduleSlot) for a caller that keeps one event pending at a
// time and schedules the next from its callback, as the scenario's
// arrival pump does. The slot event takes its seq when it is scheduled
// and fires whenever it precedes the heap's root, so the firing order is
// the single (At, seq) order either way; the slot only spares each
// arrival a push and a pop. Engine.Reschedule moves a pending event in
// place with a fresh seq, which orders it exactly as Cancel followed by
// ScheduleAt would, without taking it out of the heap. Event structs are
// pooled; see Event for what a holder of an *Event may do.
//
// Determinism contract: two Engines constructed with the same seed and fed
// the same schedule of events produce byte-identical event orderings and
// random draws. All randomness used in a simulation must flow through
// RNG streams obtained from the engine (or from an explicit seed) for this
// contract to hold.
//
// SeedFor(seed, name) is the root of the repository-wide (seed, job name)
// rule: independent simulations launched in parallel derive their seeds
// from a parent seed and a unique name, so scheduling can never leak into
// their randomness. See ARCHITECTURE.md for how the scenario batch runner
// builds on it.
package sim
