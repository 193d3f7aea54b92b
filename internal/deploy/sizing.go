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

// publicSpec is the one flavor the public cloud rents, m.large. Its
// 2013 list prices are constants in package cost.
var publicSpec = cloud.InstanceSpec{
	Name:      "m.large",
	Res:       cloud.Resources{CPU: 4, Mem: 7.5, Disk: 850},
	BootDelay: sim.LogNormal(100, 0.3),
}

// PublicBoot is the public flavor's mean boot delay: how long a
// flow-level fleet's new server takes to start serving.
func PublicBoot() time.Duration { return sim.Seconds(publicSpec.BootDelay.Mean()) }

// privateSpec is the VM carved out of a campus host. It has the rented
// flavor's shape, so comparisons are apples-to-apples, and boots faster:
// there is no remote API and the image is local.
var privateSpec = cloud.InstanceSpec{
	Name:      "pvt." + publicSpec.Name,
	Res:       publicSpec.Res,
	BootDelay: sim.LogNormal(40, 0.3),
}

// campusHost is the capacity of one owned host. Campus hosts hang off a
// storage array: disk is never the packing bottleneck, CPU is.
var campusHost = cloud.Resources{CPU: 16, Mem: 64, Disk: 8000}

// vmsPerHost returns how many VMs of the given flavor fit on one host,
// limited by the scarcest resource dimension. It never returns less
// than 1 (a flavor larger than the host still gets a dedicated host).
func vmsPerHost(host, vm cloud.Resources) int {
	fit := func(capacity, demand float64) int {
		if demand <= 0 {
			return 1 << 20
		}
		return int(capacity / demand)
	}
	per := fit(host.CPU, vm.CPU)
	if v := fit(host.Mem, vm.Mem); v < per {
		per = v
	}
	if v := fit(host.Disk, vm.Disk); v < per {
		per = v
	}
	if per < 1 {
		per = 1
	}
	return per
}

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
	if sz.PrivateServers > 0 {
		// Pack by the bottleneck dimension, not just CPU: a flavor with
		// outsized disk or memory demands must not oversubscribe hosts,
		// or the "peak-sized" fleet silently comes up short.
		perHost := vmsPerHost(campusHost, privateSpec.Res)
		sz.PrivateHosts = (sz.PrivateServers + perHost - 1) / perHost
	}
	return sz, nil
}
