package federate

import (
	"fmt"
	"time"

	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/workload"
)

// Member is one participating institution.
type Member struct {
	// Name labels the institution.
	Name string
	// Students is its population.
	Students int
	// CalendarShiftWeeks staggers the member's semester relative to the
	// federation baseline (different regions schedule exams in
	// different weeks).
	CalendarShiftWeeks int
}

// Validate rejects unusable members.
func (m Member) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("federate: member without a name")
	}
	if m.Students <= 0 {
		return fmt.Errorf("federate: member %q has %d students", m.Name, m.Students)
	}
	if m.CalendarShiftWeeks < 0 {
		return fmt.Errorf("federate: member %q has negative calendar shift", m.Name)
	}
	return nil
}

// Config parameterizes a federation study.
type Config struct {
	// Members are the participating institutions.
	Members []Member
}

// reqPerStudentHour is every member's workload intensity.
const reqPerStudentHour = 50

// MemberOutcome compares one member's standalone cost to its federated
// share.
type MemberOutcome struct {
	Member Member
	// StandaloneHosts and StandaloneMonthly price a go-it-alone private
	// cloud sized for the member's own peak.
	StandaloneHosts   int
	StandaloneMonthly float64
	// FederatedMonthly is the member's usage-proportional share of the
	// shared datacenter.
	FederatedMonthly float64
}

// Saving returns the member's monthly saving from federating.
func (o MemberOutcome) Saving() float64 { return o.StandaloneMonthly - o.FederatedMonthly }

// Result is a federation study's output.
type Result struct {
	// Outcomes has one entry per member, in input order.
	Outcomes []MemberOutcome
	// SharedHosts is the federation datacenter size; SumStandaloneHosts
	// is what the members would deploy separately.
	SharedHosts        int
	SumStandaloneHosts int
	// SharedPeakServers and SumMemberPeaks expose the multiplexing gain.
	SharedPeakServers int
	SumMemberPeaks    int
	// SharedMonthly is the total federation bill per month.
	SharedMonthly float64
}

// MultiplexingGain returns sum-of-peaks over blended peak (≥ 1; higher
// means staggering helped more).
func (r *Result) MultiplexingGain() float64 {
	if r.SharedPeakServers == 0 {
		return 1
	}
	return float64(r.SumMemberPeaks) / float64(r.SharedPeakServers)
}

// Study sizes and prices the federation against standalone deployments.
// Deterministic and analytic (fluid fidelity).
func Study(cfg Config) (*Result, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federate: no members")
	}
	for _, m := range cfg.Members {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	cat := lms.DefaultCatalog()
	meanSvc := lms.TeachingMix().MeanService(cat)
	sem := workload.StandardSemester()
	week := 7 * 24 * time.Hour
	horizon := sem.Duration() + week*maxShift(cfg.Members)

	// Per-member generators with shifted calendars.
	gens := make([]*workload.Generator, len(cfg.Members))
	for i, m := range cfg.Members {
		gen, err := workload.NewGenerator(workload.Config{
			Students:          m.Students,
			ReqPerStudentHour: reqPerStudentHour,
			Calendar:          shiftedCalendar(sem, m.CalendarShiftWeeks),
		})
		if err != nil {
			return nil, err
		}
		gens[i] = gen
	}

	// Blend the load curves to find peaks and per-member usage.
	step := 30 * time.Minute
	memberWork := make([]float64, len(cfg.Members)) // integrated server-hours
	var sharedPeakRPS float64
	memberPeakRPS := make([]float64, len(cfg.Members))
	for t := time.Duration(0); t < horizon; t += step {
		var total float64
		for i, gen := range gens {
			r := gen.Rate(t)
			total += r
			if r > memberPeakRPS[i] {
				memberPeakRPS[i] = r
			}
			memberWork[i] += r * meanSvc / deploy.TargetUtil * step.Hours()
		}
		if total > sharedPeakRPS {
			sharedPeakRPS = total
		}
	}

	res := &Result{}
	months := horizon.Hours() / cost.HoursPerMonth

	shared, err := privateSize(sharedPeakRPS, meanSvc)
	if err != nil {
		return nil, err
	}
	res.SharedPeakServers, res.SharedHosts = shared.ServersAtPeak, shared.PrivateHosts
	sharedBill, err := cost.Bill(cost.Usage{Months: months, PrivateHosts: res.SharedHosts})
	if err != nil {
		return nil, err
	}
	res.SharedMonthly = sharedBill.Total() / months

	var totalWork float64
	for _, w := range memberWork {
		totalWork += w
	}
	for i, m := range cfg.Members {
		alone, err := privateSize(memberPeakRPS[i], meanSvc)
		if err != nil {
			return nil, err
		}
		hosts := alone.PrivateHosts
		res.SumMemberPeaks += alone.ServersAtPeak
		res.SumStandaloneHosts += hosts
		standalone, err := cost.Bill(cost.Usage{Months: months, PrivateHosts: hosts})
		if err != nil {
			return nil, err
		}
		share := 0.0
		if totalWork > 0 {
			share = memberWork[i] / totalWork
		}
		res.Outcomes = append(res.Outcomes, MemberOutcome{
			Member:            m,
			StandaloneHosts:   hosts,
			StandaloneMonthly: standalone.Total() / months,
			FederatedMonthly:  res.SharedMonthly * share,
		})
	}
	return res, nil
}

// Table renders the study for reports.
func (r *Result) Table(title string) *metrics.Table {
	t := metrics.NewTable(title,
		"member", "students", "standalone hosts", "standalone $/mo", "federated $/mo", "saving")
	for _, o := range r.Outcomes {
		t.AddRow(o.Member.Name, o.Member.Students,
			o.StandaloneHosts,
			metrics.FmtDollars(o.StandaloneMonthly),
			metrics.FmtDollars(o.FederatedMonthly),
			metrics.FmtDollars(o.Saving()))
	}
	t.AddNote("shared datacenter: %d hosts vs %d standalone; peak multiplexing gain %.2fx",
		r.SharedHosts, r.SumStandaloneHosts, r.MultiplexingGain())
	return t
}

func maxShift(members []Member) time.Duration {
	max := 0
	for _, m := range members {
		if m.CalendarShiftWeeks > max {
			max = m.CalendarShiftWeeks
		}
	}
	return time.Duration(max)
}

// shiftedCalendar rotates the semester by n weeks (prepending vacation
// weeks so member terms start at different times).
func shiftedCalendar(base *workload.Calendar, shiftWeeks int) *workload.Calendar {
	if shiftWeeks == 0 {
		return base
	}
	weeks := make([]workload.Week, 0, base.Len()+shiftWeeks)
	for i := 0; i < shiftWeeks; i++ {
		weeks = append(weeks, workload.Week{Kind: workload.Vacation, Mult: 0.05})
	}
	week := 7 * 24 * time.Hour
	for i := 0; i < base.Len(); i++ {
		weeks = append(weeks, base.WeekAt(time.Duration(i)*week))
	}
	return workload.NewCalendar(weeks)
}

// privateSize is deploy's plan for a private cloud that absorbs
// peakRPS requests per second of meanSvc seconds of work each.
func privateSize(peakRPS, meanSvc float64) (deploy.Sizing, error) {
	return deploy.Size(deploy.Spec{Kind: deploy.Private, ExpectedPeakRPS: peakRPS, MeanServiceSec: meanSvc})
}
