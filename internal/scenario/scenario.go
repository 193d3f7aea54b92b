package scenario

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/scale"
	"elearncloud/internal/workload"
)

// ScalerKind selects the elasticity policy for the elastic (public) side.
type ScalerKind int

// Scaler kinds.
const (
	ScalerFixed ScalerKind = iota + 1
	ScalerReactive
	ScalerScheduled
	ScalerPredictive
	// ScalerGrowthFit fits the demand curve online (scale.GrowthFit) and
	// provisions ahead of the projected cliff, reactive until the fit
	// stabilizes.
	ScalerGrowthFit
	// ScalerOracle provisions from the true workload curve, storms
	// included (a scale.Planned a lead ahead) — the yardstick
	// forecasting policies are judged against.
	ScalerOracle
)

// String returns the policy name.
func (k ScalerKind) String() string {
	switch k {
	case ScalerFixed:
		return "fixed"
	case ScalerReactive:
		return "reactive"
	case ScalerScheduled:
		return "scheduled"
	case ScalerPredictive:
		return "predictive"
	case ScalerGrowthFit:
		return "growth-fit"
	case ScalerOracle:
		return "oracle"
	default:
		return fmt.Sprintf("ScalerKind(%d)", int(k))
	}
}

// Fidelity selects how Pool.Run simulates a run's horizon: every
// request (FidelityDES, the default), the flow-level fluid model
// (FidelityFluid), or the fluid model through the quiet stretches and
// request-level windows through the bursts (FidelityAuto, hybrid.go).
type Fidelity int

// Fidelities.
const (
	FidelityDES Fidelity = iota + 1
	FidelityFluid
	FidelityAuto
)

// Config describes one experiment.
type Config struct {
	// Seed drives all randomness; same seed + config = same result.
	Seed uint64
	// Kind is the deployment model under test.
	Kind deploy.Kind
	// Students sizes the institution; it runs CoursesFor(Students)
	// courses. With Growth set, Students may be zero (derived from the
	// growth capacity).
	Students int
	// Growth makes the active population a curve instead of a constant
	// — MOOC enrollment growth (workload.LogisticGrowth for a viral
	// course, workload.LinearGrowth for a cohort ramp).
	Growth *workload.Growth
	// ReqPerStudentHour is mean per-student demand (default 50).
	ReqPerStudentHour float64
	// Access is the user population's connectivity profile (default
	// UrbanBroadband; the paper's rural learners use RuralDSL).
	Access network.AccessProfile
	// Duration is the simulated horizon (default 6h for Run).
	Duration time.Duration
	// Diurnal shapes the day (default CampusDiurnal; experiments that
	// want analytic load use FlatDiurnal).
	Diurnal *workload.DiurnalProfile
	// Calendar optionally shapes a multi-week run.
	Calendar *workload.Calendar
	// Crowds adds exam flash-crowd windows.
	Crowds []workload.FlashCrowd
	// Storms adds deadline storms (procrastination ramp, submission
	// cliff) and Joins adds live-session join storms — the MOOC
	// stressors of figure10.
	Storms []workload.DeadlineStorm
	Joins  []workload.JoinStorm
	// Scaler picks the elasticity policy for the elastic side (default
	// reactive for public/hybrid; private is always a fixed fleet).
	Scaler ScalerKind
	// HybridPolicy configures the hybrid split. Nil picks
	// deploy.DefaultHybridPolicy for a hybrid, half the steady capacity
	// in-house; a policy with a PrivateBaseShare of 0 keeps the one
	// private server every hybrid has.
	HybridPolicy *deploy.HybridPolicy
	// StrictPinning keeps sensitive requests on the private side even
	// when it saturates; relaxed pinning bursts them to public and
	// counts the policy violations (Table 4 ablation).
	StrictPinning bool
	// EnableThreats runs the security model during the scenario.
	EnableThreats bool
	// EnableCDN serves video through an edge CDN on deployments with a
	// public side: hits take the short edge path and bill at CDN rates;
	// misses fetch from the origin and pay egress.
	EnableCDN bool
	// HostFailureAt, when positive, destroys private host 0 at that
	// time, killing its VMs — §IV.B's "physical damage of the unit",
	// injected live. HostRecoveryAfter restores it (default 4h).
	HostFailureAt     time.Duration
	HostRecoveryAfter time.Duration
	// AutosaveEvery is the cloud LMS autosave interval (default 5m).
	AutosaveEvery time.Duration
	// TrackedSessions is how many user sessions lose their unsaved work
	// to each disconnect (default 50). They share the access line and
	// the autosave timer, so one session stands for them all.
	TrackedSessions int
	// MaxPublicServers caps elastic growth (default 0: derived from peak
	// sizing × 4).
	MaxPublicServers int
	// Fidelity picks how Pool.Run simulates the horizon (default
	// FidelityDES).
	Fidelity Fidelity
	// Shards splits every DES engine the run has into this many
	// per-shard engines on the pool: the whole horizon under
	// FidelityDES, each burst window under FidelityAuto (default 0 and
	// 1 both mean one engine; negative, or more shards than students,
	// is an error). The fluid model ignores it. See sharded.go for
	// the shares and merge semantics.
	Shards int
	// HybridIntensity is the fidelity planner's burst threshold: an
	// envelope segment whose crowd/storm/join multiplier bound reaches
	// this factor drops into request-level DES under FidelityAuto
	// (default 1.5). The other fidelities ignore it.
	HybridIntensity float64
	// HybridGuard pads each DES window by this margin on both sides, so
	// warm-started fleets boot and settle on quiet traffic before the
	// burst hits (default 10m). Only FidelityAuto reads it.
	HybridGuard time.Duration
}

func (c *Config) defaults() error {
	if c.Kind == 0 {
		c.Kind = deploy.Public
	}
	if c.Kind < deploy.Public || c.Kind > deploy.Desktop {
		return fmt.Errorf("scenario: Kind = %v, need public, private, hybrid or desktop", c.Kind)
	}
	if c.Scaler == 0 {
		c.Scaler = ScalerReactive
	}
	if c.Scaler < ScalerFixed || c.Scaler > ScalerOracle {
		return fmt.Errorf("scenario: Scaler = %v, need fixed, reactive, scheduled, predictive, growth-fit or oracle", c.Scaler)
	}
	if c.Fidelity == 0 {
		c.Fidelity = FidelityDES
	}
	if c.Fidelity < FidelityDES || c.Fidelity > FidelityAuto {
		return fmt.Errorf("scenario: Fidelity = %d, need FidelityDES, FidelityFluid or FidelityAuto", c.Fidelity)
	}
	if c.Shards < 0 {
		return fmt.Errorf("scenario: Shards = %d, need >= 0", c.Shards)
	}
	if c.Growth != nil && c.Students <= 0 {
		c.Students = int(math.Ceil(c.Growth.Max()))
	}
	if c.Students <= 0 {
		return fmt.Errorf("scenario: Students = %d, need > 0", c.Students)
	}
	// An empty shard would still build and bill its floor fleet.
	if c.Shards > c.Students {
		return fmt.Errorf("scenario: Shards = %d, need at most Students = %d", c.Shards, c.Students)
	}
	if c.ReqPerStudentHour == 0 {
		c.ReqPerStudentHour = 50
	}
	if !(c.ReqPerStudentHour > 0) || math.IsInf(c.ReqPerStudentHour, 1) {
		return fmt.Errorf("scenario: ReqPerStudentHour = %v, need a finite value >= 0 (0 picks 50)", c.ReqPerStudentHour)
	}
	if c.Access.Name == "" {
		c.Access = network.UrbanBroadband
	}
	if err := c.Access.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if c.Duration <= 0 {
		c.Duration = 6 * time.Hour
	}
	if c.Kind == deploy.Hybrid && c.HybridPolicy == nil {
		p := deploy.DefaultHybridPolicy()
		c.HybridPolicy = &p
	}
	if c.HybridPolicy != nil {
		if err := c.HybridPolicy.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if c.AutosaveEvery <= 0 {
		c.AutosaveEvery = 5 * time.Minute
	}
	if c.TrackedSessions <= 0 {
		c.TrackedSessions = 50
	}
	if c.TrackedSessions > c.Students {
		c.TrackedSessions = c.Students
	}
	if c.HostFailureAt > 0 && c.HostRecoveryAfter <= 0 {
		c.HostRecoveryAfter = 4 * time.Hour
	}
	if math.IsNaN(c.HybridIntensity) {
		return fmt.Errorf("scenario: HybridIntensity = %v, not a number", c.HybridIntensity)
	}
	if c.HybridIntensity <= 0 {
		c.HybridIntensity = 1.5
	}
	if c.HybridGuard <= 0 {
		c.HybridGuard = 10 * time.Minute
	}
	return nil
}

// CoursesFor is the number of courses an institution of the given size
// runs: one per 25 students, plus one. It sizes the asset inventory and
// the CDN catalog.
func CoursesFor(students int) int { return students/25 + 1 }

// Result is what one scenario run measured.
type Result struct {
	// Kind echoes the model under test.
	Kind deploy.Kind
	// Scaler echoes the elasticity policy.
	Scaler ScalerKind
	// Duration is the simulated horizon.
	Duration time.Duration

	// Latency is the end-to-end response-time distribution (seconds).
	Latency *metrics.Histogram
	// Served, Rejected and Offline count request outcomes: completed,
	// refused by a saturated fleet, and lost to a down network path.
	Served, Rejected, Offline uint64
	// PolicyViolations counts sensitive requests served on the public
	// side under relaxed pinning.
	PolicyViolations uint64

	// Servers tracks fleet size over time; Utilization tracks offered
	// load over capacity; P95Series tracks the rolling per-minute P95
	// latency (Figure 2's y-axis). A fluid run leaves Latency,
	// Utilization and P95Series empty: the flow model has no requests.
	Servers     *metrics.TimeSeries
	Utilization *metrics.TimeSeries
	P95Series   *metrics.TimeSeries
	// PeakServers is the largest fleet observed.
	PeakServers int

	// MeanPrivateUtil, Rate and ServerRankHours are the fluid
	// stretches' outputs: the whole horizon under FidelityFluid, the
	// stretches outside the DES windows under FidelityAuto, and unset
	// under FidelityDES.
	//
	// MeanPrivateUtil is the average fraction of the private fleet doing
	// useful work — §IV.B's underutilization argument made measurable.
	MeanPrivateUtil float64
	// Rate is the arrival-rate curve (req/s) on the fluid model's
	// 5-minute grid.
	Rate *metrics.TimeSeries
	// ServerRankHours is the fleet's utilization duration curve:
	// element k holds how many hours the (k+1)-th public server was
	// running. It feeds the reserved-instance purchase-mix optimization
	// (Table 8).
	ServerRankHours []float64

	// VMHoursPublic / VMHoursPrivate are compute consumption by side.
	VMHoursPublic  float64
	VMHoursPrivate float64
	// PrivateHosts is the owned fleet size.
	PrivateHosts int
	// EgressGB is data served out of the public cloud.
	EgressGB float64
	// CDNGB is data delivered via the edge CDN; CDNHitRatio is the edge
	// cache's realized hit ratio (both zero when the CDN is disabled).
	CDNGB       float64
	CDNHitRatio float64
	// KilledJobs counts in-flight requests destroyed by host failure.
	KilledJobs int

	// LostWork is cumulative unsaved work destroyed by disconnects
	// across tracked sessions; Disconnects counts outage-driven drops.
	LostWork    time.Duration
	Disconnects int
	// NetAvailability is the last-mile availability observed.
	NetAvailability float64

	// Breaches, SensitiveExposures, DataLossEvents and BytesLost come
	// from the threat model (zero when threats are disabled).
	Breaches           int
	SensitiveExposures int
	DataLossEvents     int
	BytesLost          float64

	// Arrivals counts request arrivals before routing — the left-hand
	// side of the conservation identity Audit checks,
	// Arrivals == Served + Rejected + Offline + KilledJobs + InFlight.
	// A fluid stretch reports its offered mass ∫rate·dt, rounded, as
	// both arrived and served: the flow model serves all offered load.
	Arrivals uint64
	// InFlight counts real requests a DES engine admitted that had
	// neither been delivered nor killed when it stopped. A hybrid
	// stitch hands its windows' in-flight requests back to the fluid
	// side as served, so a FidelityAuto run reports none.
	InFlight int
	// CarriedIn counts the synthetic backlog requests a hybrid DES
	// window injected at its opening seam (the queue mass the fluid
	// model predicts is in flight); it stays zero outside FidelityAuto.
	CarriedIn int

	// Events counts DES events the engine executed (summed across
	// shards for a merged sharded run).
	Events uint64
	// Shards is the shard count of a merged FidelityDES run
	// (Config.Shards >= 2); it stays zero for a one-engine run and under
	// FidelityAuto, whose windows merge one by one. ShardEvents, set
	// only when Shards >= 2, holds per-shard event counts in shard-index
	// order.
	Shards      int
	ShardEvents []uint64

	// FluidSimHours and DESSimHours split the simulated horizon by
	// fidelity: hours integrated by the fluid model versus hours
	// simulated at request level. Their sum is the full horizon under
	// FidelityAuto; FidelityFluid sets FluidSimHours to the horizon, and
	// FidelityDES leaves both zero.
	FluidSimHours float64
	DESSimHours   float64

	// Fit is the growth-fitting scaler's final fit report (nil unless
	// the run used ScalerGrowthFit) — the shape, parameters and residual
	// the policy was acting on when the horizon ended, surfaced for
	// experiment notes and tests.
	Fit *scale.FitReport

	// Cost is the itemized bill for the run.
	Cost cost.Report
}

// ErrorRate returns the fraction of request attempts the user perceived
// as failed: rejected, offline, or killed by a host failure.
func (r *Result) ErrorRate() float64 {
	failed := r.Rejected + r.Offline + uint64(r.KilledJobs)
	total := r.Served + failed
	if total == 0 {
		return 0
	}
	return float64(failed) / float64(total)
}

// CostPerStudentMonth normalizes cost to USD/student/month.
func (r *Result) CostPerStudentMonth(students int) float64 {
	months := r.Duration.Hours() / cost.HoursPerMonth
	return cost.PerStudentMonth(r.Cost, students, months)
}

// Audit checks r's request ledger: every arrival was served, rejected,
// lost offline, killed by a host failure or is still in flight, and
// none of those counts is negative. Pool.Run returns its error.
func (r *Result) Audit() error {
	if r.KilledJobs < 0 || r.InFlight < 0 {
		return fmt.Errorf("scenario: negative ledger count: %d killed, %d in flight", r.KilledJobs, r.InFlight)
	}
	if settled := r.Served + r.Rejected + r.Offline + uint64(r.KilledJobs) + uint64(r.InFlight); settled != r.Arrivals {
		return fmt.Errorf("scenario: unbalanced ledger: %d arrivals vs %d served + %d rejected + %d offline + %d killed + %d in flight = %d",
			r.Arrivals, r.Served, r.Rejected, r.Offline, r.KilledJobs, r.InFlight, settled)
	}
	return nil
}

// add folds o's additive outcomes into r, in call order, so a float sum
// over parts has one fixed evaluation order. It is the fold a shard
// merge and a hybrid stitch share; PeakServers, PrivateHosts and the
// ratios follow each caller's own rule.
func (r *Result) add(o *Result) {
	r.Latency.Merge(o.Latency)
	r.Served += o.Served
	r.Rejected += o.Rejected
	r.Offline += o.Offline
	r.PolicyViolations += o.PolicyViolations
	r.VMHoursPublic += o.VMHoursPublic
	r.VMHoursPrivate += o.VMHoursPrivate
	r.EgressGB += o.EgressGB
	r.CDNGB += o.CDNGB
	r.KilledJobs += o.KilledJobs
	r.LostWork += o.LostWork
	r.Disconnects += o.Disconnects
	r.Breaches += o.Breaches
	r.SensitiveExposures += o.SensitiveExposures
	r.DataLossEvents += o.DataLossEvents
	r.BytesLost += o.BytesLost
	r.Arrivals += o.Arrivals
	r.InFlight += o.InFlight
	r.CarriedIn += o.CarriedIn
	r.Events += o.Events
}
