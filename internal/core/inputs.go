package core

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/migrate"
	"elearncloud/internal/scenario"
	"elearncloud/internal/security"
	"elearncloud/internal/workload"
)

// Inputs are the raw per-model measurements the scorecard normalizes.
// Lower is better for every metric.
type Inputs struct {
	// Students sizes the institution measured.
	Students int
	// CostPerStudentMonth is semester TCO normalized per student-month
	// (fluid run over a standard semester).
	CostPerStudentMonth map[deploy.Kind]float64
	// P95LatencySec is steady teaching-load tail latency (request-level
	// run).
	P95LatencySec map[deploy.Kind]float64
	// ExamP99Sec is tail latency during an exam flash crowd.
	ExamP99Sec map[deploy.Kind]float64
	// ExamErrorRate is the rejected+offline fraction during the crowd.
	ExamErrorRate map[deploy.Kind]float64
	// AnnualSensitiveRisk is the analytic expected sensitive-asset
	// compromise events per year.
	AnnualSensitiveRisk map[deploy.Kind]float64
	// MigrationUSD is the cost of leaving the current provider.
	MigrationUSD map[deploy.Kind]float64
	// OpsBurdenUSDMonth is monthly staff + integration overhead.
	OpsBurdenUSDMonth map[deploy.Kind]float64
}

// MeasureConfig tunes MeasureInputs.
type MeasureConfig struct {
	// Seed drives all component simulations.
	Seed uint64
	// Students sizes the institution (default 2000).
	Students int
	// DESStudents caps the request-level runs for speed (default 1000).
	DESStudents int
	// Pool is the shared worker pool the component simulations fan out
	// on. Passing the caller's pool keeps nested measurement batches
	// work-conserving: the nine component jobs claim any token the
	// outer level frees. nil means a one-off scenario.DefaultWorkers
	// pool. Results are identical for every pool.
	Pool *scenario.Pool
}

func (c *MeasureConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Students <= 0 {
		c.Students = 2000
	}
	if c.DESStudents <= 0 {
		c.DESStudents = 1000
	}
	if c.DESStudents > c.Students {
		c.DESStudents = c.Students
	}
}

// examMult is the flash-crowd multiplier of the exam runs.
const examMult = 10

// MeasureInputs runs the standard component-experiment recipe for the
// three cloud models and returns the raw metric table. Deterministic
// given cfg.
func MeasureInputs(cfg MeasureConfig) (*Inputs, error) {
	cfg.defaults()
	in := &Inputs{
		Students:            cfg.Students,
		CostPerStudentMonth: make(map[deploy.Kind]float64),
		P95LatencySec:       make(map[deploy.Kind]float64),
		ExamP99Sec:          make(map[deploy.Kind]float64),
		ExamErrorRate:       make(map[deploy.Kind]float64),
		AnnualSensitiveRisk: make(map[deploy.Kind]float64),
		MigrationUSD:        make(map[deploy.Kind]float64),
		OpsBurdenUSDMonth:   make(map[deploy.Kind]float64),
	}
	sem := workload.StandardSemester()

	// The nine component simulations (three per model) are independent;
	// declare them as named jobs and fan them out on the batch runner.
	batch := scenario.NewBatch(cfg.Seed)
	for _, kind := range deploy.Kinds() {
		batch.AddFluid("fluid/"+kind.String(), scenario.Config{
			Seed:     cfg.Seed,
			Kind:     kind,
			Students: cfg.Students,
			Duration: sem.Duration(),
			Calendar: sem,
		})
		batch.Add("steady/"+kind.String(), scenario.Config{
			Seed:              cfg.Seed,
			Kind:              kind,
			Students:          cfg.DESStudents,
			ReqPerStudentHour: 50,
			Duration:          2 * time.Hour,
			Diurnal:           workload.FlatDiurnal(),
		})
		batch.Add("exam/"+kind.String(), scenario.Config{
			Seed:              cfg.Seed,
			Kind:              kind,
			Students:          cfg.DESStudents,
			ReqPerStudentHour: 50,
			Duration:          2 * time.Hour,
			Diurnal:           workload.FlatDiurnal(),
			Crowds: []workload.FlashCrowd{{
				Start: 30 * time.Minute, End: 90 * time.Minute,
				Mult: examMult, ExamTraffic: true,
			}},
		})
	}
	runs, err := batch.RunOn(cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	for _, kind := range deploy.Kinds() {
		// Cost: fluid semester.
		fluid := runs.Result("fluid/" + kind.String())
		in.CostPerStudentMonth[kind] = fluid.CostPerStudentMonth(cfg.Students)

		// Performance: 2h of steady teaching load.
		in.P95LatencySec[kind] = runs.Result("steady/" + kind.String()).Latency.P95()

		// Scalability: exam flash crowd.
		exam := runs.Result("exam/" + kind.String())
		in.ExamP99Sec[kind] = exam.Latency.P99()
		in.ExamErrorRate[kind] = exam.ErrorRate()

		// Security: analytic risk for the model's asset placement.
		assets := lms.NewInventory(cfg.Students/25+1, cfg.Students, deploy.Place(kind, deploy.DefaultHybridPolicy()))
		in.AnnualSensitiveRisk[kind] = security.ConfigFor(kind).AnnualSensitiveRisk(assets)

		// Portability: cost of leaving.
		plan, err := migrate.NewPlan(migrate.LockinProfile{
			Index:      kind.DefaultLockinIndex(),
			Components: 12,
			DataBytes:  assets.BytesAt(lms.OnPublic) + 0.2*assets.BytesAt(lms.OnPrivate),
		}, migrate.DefaultCostModel())
		if err != nil {
			return nil, fmt.Errorf("core: migrate %v: %w", kind, err)
		}
		in.MigrationUSD[kind] = plan.TotalUSD()

		// Manageability: monthly staff + integration burden.
		months := sem.Duration().Hours() / 730
		in.OpsBurdenUSDMonth[kind] = (fluid.Cost.Staff + fluid.Cost.Integration) / months
	}
	return in, nil
}
