package core

import (
	"time"

	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
)

// This file models the paper's §III merit claims that are about client
// devices and software logistics rather than server load, so Table 1 can
// put a number next to every claim. Parameters are stated assumptions
// (documented per constant), not measurements; what matters is the
// cloud/desktop contrast, which is robust to the exact values.

const (
	// desktopBootSec: cold boot of a 2013 lab PC plus login scripts.
	desktopBootSec = 75
	// desktopAppLaunchSec: launching the locally installed LMS client.
	desktopAppLaunchSec = 20
	// cloudPageLoadSec: browser to a warmed cloud LMS ("boot and run
	// faster because they have fewer programs and processes loaded into
	// device memory", §III.2).
	cloudPageLoadSec = 2.5

	// techPCsPerDay: lab PCs one technician re-images in a day.
	techPCsPerDay = 25
	// cloudDeploySec: one rolling deploy updates every user ("updates
	// occur automatically and are available the next time you log on",
	// §III.3).
	cloudDeploySec = 1800

	// desktopManualSaveSec: how often users save locally (15 minutes).
	desktopManualSaveSec = 900
	// cloudAutosaveSec: cloud LMS autosave interval (1 minute for
	// document-style editing).
	cloudAutosaveSec = 60

	// deviceContinuity: probability that switching devices mid-course
	// keeps all work available ("your existing applications and
	// documents follow you through the cloud", §III.5).
	cloudDeviceContinuity   = 1.0
	desktopDeviceContinuity = 0.25
)

// SessionStartTime returns how long a learner waits from sitting down to
// working, per model (§III.2 "improved performance").
func SessionStartTime(kind deploy.Kind) time.Duration {
	if kind == deploy.Desktop {
		return time.Duration((desktopBootSec + desktopAppLaunchSec) * float64(time.Second))
	}
	return time.Duration(cloudPageLoadSec * float64(time.Second))
}

// UpdatePropagation returns how long a software update takes to reach
// every user (§III.3 "instant software updates"). Desktop fleets are
// re-imaged machine by machine; cloud deployments update once.
func UpdatePropagation(kind deploy.Kind, students, technicians int) time.Duration {
	if kind != deploy.Desktop {
		return time.Duration(cloudDeploySec * float64(time.Second))
	}
	if technicians < 1 {
		technicians = 1
	}
	pcs := (students + cost.StudentsPerPC - 1) / cost.StudentsPerPC
	days := float64(pcs) / float64(techPCsPerDay*technicians)
	return time.Duration(days * 24 * float64(time.Hour))
}

// ExpectedCrashLoss returns the expected work lost when the learner's
// own computer crashes mid-session (§III.4 "increased data reliability":
// "even if the personal computer crashes, all data is still intact in
// the cloud"). Uniform crash timing loses half the save interval on
// average.
func ExpectedCrashLoss(kind deploy.Kind) time.Duration {
	if kind == deploy.Desktop {
		return time.Duration(desktopManualSaveSec / 2 * float64(time.Second))
	}
	return time.Duration(cloudAutosaveSec / 2 * float64(time.Second))
}

// DeviceContinuity returns the probability that a learner switching
// devices continues with all work intact (§III.5 "device independence").
func DeviceContinuity(kind deploy.Kind) float64 {
	if kind == deploy.Desktop {
		return desktopDeviceContinuity
	}
	return cloudDeviceContinuity
}
