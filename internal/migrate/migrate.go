package migrate

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/cost"
	"elearncloud/internal/sim"
)

// LockinProfile describes how entangled a deployment is with its current
// provider.
type LockinProfile struct {
	// Index in [0,1] is the fraction of the system built against
	// proprietary interfaces (deploy.Kind.DefaultLockinIndex provides
	// per-model defaults).
	Index float64
	// DataBytes is the volume held at the provider that must move.
	DataBytes float64
}

// Validate rejects out-of-range profiles.
func (p LockinProfile) Validate() error {
	if p.Index < 0 || p.Index > 1 {
		return fmt.Errorf("migrate: lock-in index %v outside [0,1]", p.Index)
	}
	if p.DataBytes < 0 {
		return fmt.Errorf("migrate: negative data volume")
	}
	return nil
}

// systemComponents is the number of deployable components of an
// e-learning system (LMS core, video pipeline, auth, grade book,
// forums, ...), the units a migration ports.
const systemComponents = 12

// Migration prices: 2013-era consulting figures, a component port is
// about three person-weeks at ~$4k/week. The provider's egress price is
// cost.EgressPerGB.
const (
	// reengineerUSDPerComponent is the cost to port one
	// proprietary-entangled component to a standard interface.
	reengineerUSDPerComponent float64 = 12000
	// engineerUSDPerWeek converts effort to calendar time (one team).
	engineerUSDPerWeek float64 = 4000
	// transferMbps is the sustained export bandwidth.
	transferMbps float64 = 500
	// cutoverHours is the service freeze for the final switchover.
	cutoverHours float64 = 8
	// testingFraction adds integration-testing effort proportional to
	// the re-engineering bill.
	testingFraction float64 = 0.35
)

// Plan is a priced migration.
type Plan struct {
	// ComponentsToPort is how many components need re-engineering
	// (lock-in index × systemComponents, rounded up).
	ComponentsToPort int
	// ReengineerUSD is the porting bill including testing.
	ReengineerUSD float64
	// EgressUSD is the data-export bill.
	EgressUSD float64
	// TransferTime is how long the data export takes.
	TransferTime time.Duration
	// EngineeringTime is the porting calendar time (one team, serial).
	EngineeringTime time.Duration
	// Downtime is the user-visible freeze.
	Downtime time.Duration
}

// TotalUSD sums the money components.
func (p Plan) TotalUSD() float64 { return p.ReengineerUSD + p.EgressUSD }

// CalendarTime is the end-to-end migration duration: engineering and the
// bulk transfer overlap; the cutover is serial at the end.
func (p Plan) CalendarTime() time.Duration {
	m := p.EngineeringTime
	if p.TransferTime > m {
		m = p.TransferTime
	}
	return m + p.Downtime
}

// NewPlan prices a migration for a profile at the 2013 prices.
func NewPlan(profile LockinProfile) (Plan, error) {
	if err := profile.Validate(); err != nil {
		return Plan{}, err
	}
	ports := int(math.Ceil(profile.Index * systemComponents))
	reeng := float64(ports) * reengineerUSDPerComponent * (1 + testingFraction)

	gb := profile.DataBytes / 1e9
	egress := gb * cost.EgressPerGB

	transferSec := profile.DataBytes * 8 / (transferMbps * 1e6)

	engWeeks := reeng / engineerUSDPerWeek

	return Plan{
		ComponentsToPort: ports,
		ReengineerUSD:    reeng,
		EgressUSD:        egress,
		TransferTime:     sim.Seconds(transferSec),
		EngineeringTime:  time.Duration(engWeeks * float64(7*24*time.Hour)),
		Downtime:         time.Duration(cutoverHours * float64(time.Hour)),
	}, nil
}

// Result reports an executed migration.
type Result struct {
	// StartedAt / FinishedAt bracket the migration on the virtual clock.
	StartedAt, FinishedAt time.Duration
	// Plan echoes what was executed.
	Plan Plan
}

// Duration returns the realized calendar time.
func (r Result) Duration() time.Duration { return r.FinishedAt - r.StartedAt }

// Execute runs a plan on the engine: engineering and transfer proceed in
// parallel, then the cutover freeze, then done fires. It returns the
// scheduled completion time.
func Execute(eng *sim.Engine, plan Plan, done func(Result)) time.Duration {
	if eng == nil {
		panic("migrate: Execute with nil engine")
	}
	start := eng.Now()
	finish := start + plan.CalendarTime()
	eng.ScheduleAt(finish, "migrate/complete", func() {
		if done != nil {
			done(Result{StartedAt: start, FinishedAt: eng.Now(), Plan: plan})
		}
	})
	return finish
}
