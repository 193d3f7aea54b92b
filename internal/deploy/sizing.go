package deploy

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// TargetUtil is the utilization a fleet is sized to run at its peak:
// ServersForPeak provisions so that the peak load keeps 60% of the
// servers' capacity busy, and the rest is headroom.
const TargetUtil = 0.6

// publicBoot is the boot delay, in seconds, of the one flavor the
// public cloud rents, m.large. Its 2013 list prices are constants in
// package cost.
var publicBoot = sim.LogNormal(100, 0.3)

// PublicBoot is the public flavor's mean boot delay: how long a
// flow-level fleet's new server takes to start serving.
func PublicBoot() time.Duration { return sim.Seconds(publicBoot.Mean()) }

// privateBoot is the boot delay of the VM carved out of a campus host.
// It has the rented flavor's shape, so comparisons are
// apples-to-apples, and boots faster: there is no remote API and the
// image is local.
var privateBoot = sim.LogNormal(40, 0.3)

// ServersForPeak returns the number of single-VM app servers needed to
// absorb peakRPS of meanServiceSec work at TargetUtil utilization, at
// least 1. Each app server is modeled as one processor-sharing unit.
// It is the only conversion from a request rate to a server count.
func ServersForPeak(peakRPS, meanServiceSec float64) int {
	if peakRPS <= 0 || meanServiceSec <= 0 {
		return 1
	}
	return max(1, int(math.Ceil(peakRPS*meanServiceSec/TargetUtil)))
}

// Size validates spec and works out its capacity plan: the one sizing
// rule every run path, bill and federation study shares. A negative or
// non-finite rate or service time, or a peak needing more servers than
// an int counts, is an error, not a one-server fleet.
func Size(spec Spec) (Sizing, error) {
	if spec.Kind < Public || spec.Kind > Desktop {
		return Sizing{}, fmt.Errorf("deploy: unknown kind %v", spec.Kind)
	}
	if err := spec.Policy.Validate(); err != nil {
		return Sizing{}, err
	}
	rps, svc := spec.ExpectedPeakRPS, spec.MeanServiceSec
	if !(rps >= 0 && svc >= 0) || math.IsInf(rps, 1) || math.IsInf(svc, 1) {
		return Sizing{}, fmt.Errorf("deploy: ExpectedPeakRPS %v, MeanServiceSec %v: need finite values >= 0", rps, svc)
	}
	if rps*svc/TargetUtil >= math.MaxInt {
		return Sizing{}, fmt.Errorf("deploy: ExpectedPeakRPS %v needs more servers than an int counts", rps)
	}
	sz := Sizing{ServersAtPeak: ServersForPeak(rps, svc)}
	switch spec.Kind {
	case Private:
		sz.PrivateServers = sz.ServersAtPeak
	case Hybrid:
		// The private side is sized for its steady share only; bursts
		// ride the public cloud.
		sz.PrivateServers = max(1, int(math.Ceil(float64(sz.ServersAtPeak)*spec.Policy.PrivateBaseShare)))
	}
	sz.PrivateHosts = (sz.PrivateServers + cloud.VMsPerHost - 1) / cloud.VMsPerHost
	return sz, nil
}
