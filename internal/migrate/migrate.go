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
	// Components is the number of deployable system components (LMS
	// core, video pipeline, auth, grade book, forums, ...).
	Components int
	// DataBytes is the volume held at the provider that must move.
	DataBytes float64
}

// Validate rejects out-of-range profiles.
func (p LockinProfile) Validate() error {
	if p.Index < 0 || p.Index > 1 {
		return fmt.Errorf("migrate: lock-in index %v outside [0,1]", p.Index)
	}
	if p.Components <= 0 {
		return fmt.Errorf("migrate: components = %d, need > 0", p.Components)
	}
	if p.DataBytes < 0 {
		return fmt.Errorf("migrate: negative data volume")
	}
	return nil
}

// CostModel prices migration work.
type CostModel struct {
	// ReengineerUSDPerComponent is the cost to port one
	// proprietary-entangled component to a standard interface.
	ReengineerUSDPerComponent float64
	// EngineerUSDPerWeek converts effort to calendar time (one team).
	EngineerUSDPerWeek float64
	// EgressPerGB is the provider's data-transfer-out price;
	// DefaultCostModel reads it from cost.DefaultPublicRates.
	EgressPerGB float64
	// TransferMbps is the sustained export bandwidth.
	TransferMbps float64
	// CutoverHours is the service freeze for the final switchover.
	CutoverHours float64
	// TestingFraction adds integration-testing effort proportional to
	// the re-engineering bill.
	TestingFraction float64
}

// DefaultCostModel returns 2013-era consulting prices: a component port
// is about three person-weeks at ~$4k/week.
func DefaultCostModel() CostModel {
	return CostModel{
		ReengineerUSDPerComponent: 12000,
		EngineerUSDPerWeek:        4000,
		EgressPerGB:               cost.DefaultPublicRates().EgressPerGB,
		TransferMbps:              500,
		CutoverHours:              8,
		TestingFraction:           0.35,
	}
}

// Plan is a priced migration.
type Plan struct {
	// ComponentsToPort is how many components need re-engineering
	// (lock-in index × component count, rounded up).
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

// NewPlan prices a migration for a profile under a cost model.
func NewPlan(profile LockinProfile, model CostModel) (Plan, error) {
	if err := profile.Validate(); err != nil {
		return Plan{}, err
	}
	if model.TransferMbps <= 0 {
		return Plan{}, fmt.Errorf("migrate: non-positive transfer bandwidth")
	}
	ports := int(math.Ceil(profile.Index * float64(profile.Components)))
	reeng := float64(ports) * model.ReengineerUSDPerComponent * (1 + model.TestingFraction)

	gb := profile.DataBytes / 1e9
	egress := gb * model.EgressPerGB

	transferSec := profile.DataBytes * 8 / (model.TransferMbps * 1e6)

	engWeeks := 0.0
	if model.EngineerUSDPerWeek > 0 {
		engWeeks = reeng / model.EngineerUSDPerWeek
	}

	return Plan{
		ComponentsToPort: ports,
		ReengineerUSD:    reeng,
		EgressUSD:        egress,
		TransferTime:     sim.Seconds(transferSec),
		EngineeringTime:  time.Duration(engWeeks * float64(7*24*time.Hour)),
		Downtime:         time.Duration(model.CutoverHours * float64(time.Hour)),
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
