package network

import (
	"time"

	"elearncloud/internal/metrics"
	"elearncloud/internal/sim"
)

// FailureProcess drives a component through alternating up/down periods:
// up durations are Exp(MTBF), down durations Exp(MTTR). It is the model
// behind the paper's risk that "if a Cloud connection gets terminated
// during a session, users may lose time, work, or even unsaved data".
type FailureProcess struct {
	eng  *sim.Engine
	rng  *sim.RNG
	mtbf float64 // mean seconds between failures
	mttr float64 // mean seconds to repair

	up        bool
	avail     *metrics.Availability
	listeners []func(up bool)
}

// NewFailureProcess starts a process that is up at creation and schedules
// its first failure. mtbf and mttr are in seconds and must be positive.
func NewFailureProcess(eng *sim.Engine, rng *sim.RNG, mtbf, mttr float64) *FailureProcess {
	if eng == nil || rng == nil {
		panic("network: NewFailureProcess with nil engine or rng")
	}
	if mtbf <= 0 || mttr <= 0 {
		panic("network: NewFailureProcess with non-positive MTBF/MTTR")
	}
	f := &FailureProcess{
		eng:   eng,
		rng:   rng,
		mtbf:  mtbf,
		mttr:  mttr,
		up:    true,
		avail: metrics.NewAvailability(),
	}
	f.scheduleTransition()
	return f
}

// Up reports the current state.
func (f *FailureProcess) Up() bool { return f.up }

// OnChange registers a callback invoked after every state transition.
func (f *FailureProcess) OnChange(fn func(up bool)) {
	if fn != nil {
		f.listeners = append(f.listeners, fn)
	}
}

// Availability finalizes and returns the availability tracker as of now.
func (f *FailureProcess) Availability() *metrics.Availability {
	f.avail.Finish(f.eng.Now())
	return f.avail
}

func (f *FailureProcess) scheduleTransition() {
	var wait time.Duration
	if f.up {
		wait = sim.Seconds(f.rng.Exp(f.mtbf))
	} else {
		wait = sim.Seconds(f.rng.Exp(f.mttr))
	}
	f.eng.Schedule(wait, "failure-transition", func() {
		f.up = !f.up
		f.avail.SetState(f.eng.Now(), f.up)
		for _, fn := range f.listeners {
			fn(f.up)
		}
		f.scheduleTransition()
	})
}
