package sim

import (
	"testing"
	"time"
)

// TestDrainedDistinguishesHorizonStop: a Run that stops at the horizon
// leaves its future-dated events queued, with the clock on the
// horizon, while a Run that empties the queue leaves nothing behind —
// even when the clock lands on the horizon in both cases.
func TestDrainedDistinguishesHorizonStop(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(2*time.Hour, "future", func() {})
	eng.Run(time.Hour)
	if len(eng.queue) != 1 {
		t.Fatalf("queued = %d after horizon stop, want 1", len(eng.queue))
	}
	if eng.Now() != time.Hour {
		t.Fatalf("Now() = %v, want horizon", eng.Now())
	}

	// Resuming with no horizon drains the leftover event.
	eng.Run(0)
	if len(eng.queue) != 0 {
		t.Fatalf("queued = %d after drain, want 0", len(eng.queue))
	}
	if eng.Fired() != 1 {
		t.Fatalf("Fired() = %d after drain, want 1", eng.Fired())
	}
}

// TestDrainedAtExactHorizon: an event dated exactly at the horizon
// fires, so the queue drains; only events after the horizon stay.
func TestDrainedAtExactHorizon(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(time.Hour, "at-horizon", func() {})
	eng.Run(time.Hour)
	if eng.Fired() != 1 || len(eng.queue) != 0 {
		t.Fatalf("fired %d, queued %d; the event at the horizon should fire and drain the queue",
			eng.Fired(), len(eng.queue))
	}
}

// TestSeedForStability pins the derivation rule: same (seed, name) always
// agrees, different names or seeds decorrelate, and the derived seed
// matches across call sites so parallel batch runners reproduce the
// serial path exactly.
func TestSeedForStability(t *testing.T) {
	if SeedFor(7, "table1") != SeedFor(7, "table1") {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(7, "table1") == SeedFor(7, "table2") {
		t.Fatal("distinct names collide")
	}
	if SeedFor(7, "table1") == SeedFor(8, "table1") {
		t.Fatal("distinct seeds collide")
	}
	// Streams rooted at derived seeds must not track each other.
	a := NewRNG(SeedFor(1, "a"))
	b := NewRNG(SeedFor(1, "b"))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams agree on %d/64 draws", same)
	}
}
