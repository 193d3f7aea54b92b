package deploy

import (
	"fmt"

	"elearncloud/internal/cloud"
	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

// HybridPolicy is the paper's §IV.C "distribution of units between these
// models": how much steady capacity stays in-house. Sensitive assets
// (exam questions, grades) always stay in-house too (see Place), the
// policy the paper's security argument assumes.
type HybridPolicy struct {
	// PrivateBaseShare is the fraction of steady-state capacity served
	// from the private side; the remainder — and all burst — goes public.
	PrivateBaseShare float64
}

// DefaultHybridPolicy serves half the steady load in-house.
func DefaultHybridPolicy() HybridPolicy {
	return HybridPolicy{PrivateBaseShare: 0.5}
}

// Validate checks policy ranges.
func (p HybridPolicy) Validate() error {
	if !(p.PrivateBaseShare >= 0 && p.PrivateBaseShare <= 1) {
		return fmt.Errorf("deploy: PrivateBaseShare %v outside [0,1]", p.PrivateBaseShare)
	}
	return nil
}

// Spec declaratively describes a deployment to build.
type Spec struct {
	// Kind is the deployment model.
	Kind Kind
	// ExpectedPeakRPS is the sizing target: the peak aggregate request
	// rate the deployment must absorb.
	ExpectedPeakRPS float64
	// MeanServiceSec is the mean request CPU demand, used with
	// ExpectedPeakRPS to size server counts.
	MeanServiceSec float64
	// Policy applies to Hybrid deployments.
	Policy HybridPolicy
}

// Deployment is a built deployment: datacenters on an engine and the
// capacity plan they were built for.
type Deployment struct {
	// PublicDC is the rented, elastic, multi-tenant side (nil for
	// private-only and desktop).
	PublicDC *cloud.Datacenter
	// PrivateDC is the owned, fixed-capacity side (nil for public-only
	// and desktop).
	PrivateDC *cloud.Datacenter
	// Sizing is the capacity plan the datacenters were built for.
	Sizing
}

// Sizing is a deployment's capacity plan. Size works it out without an
// engine and Build provisions it, so a flow-level model and a bill size
// exactly the fleet a request-level run builds.
type Sizing struct {
	// ServersAtPeak is the number of app servers needed at peak.
	ServersAtPeak int
	// PrivateServers is the fixed private fleet: the whole peak for
	// Private, the policy's PrivateBaseShare of it (at least one) for
	// Hybrid, and zero otherwise. Bursts above it ride the public cloud.
	PrivateServers int
	// PrivateHosts is the number of owned hosts the private fleet packs
	// onto (0 unless a private side exists).
	PrivateHosts int
}

// Place returns where a deployment of kind keeps its assets: all on the
// public cloud for Public; all in-house for Private and for Desktop
// (locally installed software on campus machines); for Hybrid, the
// sensitive assets in-house and everything else public.
func Place(kind Kind) lms.Placement {
	switch kind {
	case Public:
		return lms.AllAt(lms.OnPublic)
	case Hybrid:
		return lms.Placement{Sensitive: lms.OnPrivate, Other: lms.OnPublic}
	default: // Private, Desktop
		return lms.AllAt(lms.OnPrivate)
	}
}

// Build realizes a Spec on the engine: the datacenters its Sizing
// needs. It does not provision VMs — the autoscaler (or fixed-fleet
// bootstrap) in the scenario package does that, because VM counts are
// a runtime concern. Place gives the model's asset placement to
// whatever bill or threat model reads an inventory.
func Build(eng *sim.Engine, spec Spec) (*Deployment, error) {
	if eng == nil {
		return nil, fmt.Errorf("deploy: Build with nil engine")
	}
	sz, err := Size(spec)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Sizing: sz}
	if spec.Kind == Public || spec.Kind == Hybrid {
		d.PublicDC = cloud.NewDatacenter(eng, cloud.Config{Name: "public", Public: true, BootDelay: publicBoot})
	}
	if d.PrivateHosts > 0 {
		d.PrivateDC = cloud.NewDatacenter(eng, cloud.Config{Name: "private", Hosts: d.PrivateHosts, BootDelay: privateBoot})
	}
	return d, nil
}
