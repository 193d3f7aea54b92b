package experiments

// This file holds the shared scenario-configuration helpers the
// experiment functions compose; see doc.go for the package story.

import (
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// collegeStudents is the default institution scale for single-model
// experiments: a mid-size college.
const collegeStudents = 2000

// desStudents caps request-level runs so benches stay laptop-fast while
// keeping queueing behavior intact.
const desStudents = 1000

// examDay returns the standard exam-day configuration: flat diurnal (the
// crowd is the story), a 10x flash crowd from 00:30 to 01:30 of the run.
func examDay(seed uint64, kind deploy.Kind, scaler scenario.ScalerKind) scenario.Config {
	return scenario.Config{
		Seed:              seed,
		Kind:              kind,
		Students:          desStudents,
		ReqPerStudentHour: 50,
		Duration:          2 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Scaler:            scaler,
		Access:            network.UrbanBroadband,
		Crowds: []workload.FlashCrowd{{
			Start: 30 * time.Minute, End: 90 * time.Minute,
			Mult: 10, ExamTraffic: true,
		}},
	}
}

// steadyTeaching returns a 2h steady-load configuration.
func steadyTeaching(seed uint64, kind deploy.Kind) scenario.Config {
	return scenario.Config{
		Seed:              seed,
		Kind:              kind,
		Students:          desStudents,
		ReqPerStudentHour: 50,
		Duration:          2 * time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Access:            network.UrbanBroadband,
	}
}

// semester returns the standard-semester fluid configuration.
func semester(seed uint64, kind deploy.Kind, students int) scenario.Config {
	sem := workload.StandardSemester()
	return scenario.Config{
		Fidelity: scenario.FidelityFluid,
		Seed:     seed,
		Kind:     kind,
		Students: students,
		Duration: sem.Duration(),
		Calendar: sem,
	}
}
