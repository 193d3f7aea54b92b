package sim

import (
	"testing"
	"time"
)

func TestStartAtWarpsFreshEngineClock(t *testing.T) {
	e := NewEngine(1)
	if err := e.StartAt(90 * time.Minute); err != nil {
		t.Fatalf("StartAt: %v", err)
	}
	if e.Now() != 90*time.Minute {
		t.Fatalf("Now = %v, want 90m", e.Now())
	}
	// Absolute schedules land relative to the warped clock: a past
	// ScheduleAt clamps to the start time, not to zero.
	var firedAt Time
	e.ScheduleAt(10*time.Minute, "past", func() { firedAt = e.Now() })
	e.Run(2 * time.Hour)
	if firedAt != 90*time.Minute {
		t.Fatalf("past event fired at %v, want clamp to 90m", firedAt)
	}
	if e.Now() != 2*time.Hour {
		t.Fatalf("clock at %v after Run, want horizon", e.Now())
	}
}

func TestStartAtRejectsNonFreshEngine(t *testing.T) {
	const st = time.Hour

	scheduled := NewEngine(1)
	scheduled.Schedule(time.Second, "pending", func() {})
	if err := scheduled.StartAt(st); err == nil {
		t.Fatal("StartAt on engine with pending events succeeded")
	}

	ran := NewEngine(1)
	ran.Schedule(time.Second, "fired", func() {})
	ran.Run(0)
	if err := ran.StartAt(st); err == nil {
		t.Fatal("StartAt on engine with history succeeded")
	}

	slotted := NewEngine(1)
	slotted.ScheduleSlot(time.Second, "arrival", func() {})
	if err := slotted.StartAt(st); err == nil {
		t.Fatal("StartAt on engine with a pending slot event succeeded")
	}

	warped := NewEngine(1)
	if err := warped.StartAt(st); err != nil {
		t.Fatalf("first StartAt: %v", err)
	}
	if err := warped.StartAt(st); err == nil {
		t.Fatal("second StartAt on already-warped engine succeeded")
	}
}

func TestStartAtRejectsNegativeClock(t *testing.T) {
	e := NewEngine(1)
	if err := e.StartAt(-time.Second); err == nil {
		t.Fatal("StartAt with negative clock succeeded")
	}
}

func TestStartAtDeterminismMatchesOffsetRun(t *testing.T) {
	// A warped engine behaves exactly like a zero-based engine whose
	// schedule is shifted: same seed, same relative delays, same
	// event count, clocks offset by the start time.
	const offset = 3 * time.Hour
	run := func(base Time) (fired uint64, last Time) {
		e := NewEngine(99)
		if base > 0 {
			if err := e.StartAt(base); err != nil {
				t.Fatalf("StartAt: %v", err)
			}
		}
		var step func()
		n := 0
		step = func() {
			n++
			last = e.Now()
			if n < 50 {
				d := Seconds(e.Stream("gaps").Exp(1.0))
				e.Schedule(d, "step", step)
			}
		}
		e.Schedule(time.Second, "step", step)
		e.Run(0)
		return e.Fired(), last
	}
	f0, l0 := run(0)
	f1, l1 := run(offset)
	if f0 != f1 {
		t.Fatalf("fired %d vs %d across warp", f0, f1)
	}
	if l1-l0 != offset {
		t.Fatalf("last event at %v vs %v: offset %v, want %v", l0, l1, l1-l0, offset)
	}
}
