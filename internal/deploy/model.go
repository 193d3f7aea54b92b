package deploy

import (
	"fmt"
	"math"

	"elearncloud/internal/cloud"
	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

// HybridPolicy is the paper's §IV.C "distribution of units between these
// models": which side holds sensitive assets and how much steady capacity
// stays in-house.
type HybridPolicy struct {
	// SensitivePrivate pins exam questions and grades to the private
	// side. This is the policy the paper's security argument assumes.
	SensitivePrivate bool
	// PrivateBaseShare is the fraction of steady-state capacity served
	// from the private side; the remainder — and all burst — goes public.
	PrivateBaseShare float64
}

// DefaultHybridPolicy pins sensitive data private and serves half the
// steady load in-house.
func DefaultHybridPolicy() HybridPolicy {
	return HybridPolicy{SensitivePrivate: true, PrivateBaseShare: 0.5}
}

// Validate checks policy ranges.
func (p HybridPolicy) Validate() error {
	if p.PrivateBaseShare < 0 || p.PrivateBaseShare > 1 {
		return fmt.Errorf("deploy: PrivateBaseShare %v outside [0,1]", p.PrivateBaseShare)
	}
	return nil
}

// Spec declaratively describes a deployment to build.
type Spec struct {
	// Kind is the deployment model.
	Kind Kind
	// Students and Courses size the institution (and its asset store).
	Students int
	Courses  int
	// ExpectedPeakRPS is the sizing target: the peak aggregate request
	// rate the deployment must absorb.
	ExpectedPeakRPS float64
	// MeanServiceSec is the mean request CPU demand, used with
	// ExpectedPeakRPS to size server counts.
	MeanServiceSec float64
	// TargetUtil is the sizing headroom (default 0.6: size so peak load
	// uses 60% of capacity).
	TargetUtil float64
	// Provider is the public catalog (default DefaultProvider) and
	// InstanceTypeName the flavor to rent (default "m.large").
	Provider         *ProviderCatalog
	InstanceTypeName string
	// Policy applies to Hybrid deployments.
	Policy HybridPolicy
	// PrivateHostCapacity sizes on-premise hosts (default 16 cores /
	// 64 GB / 2 TB).
	PrivateHostCapacity cloud.Resources
}

// Deployment is a built deployment: datacenters on an engine plus the
// asset placement the model implies.
type Deployment struct {
	// Kind is the model this deployment realizes.
	Kind Kind
	// PublicDC is the rented, elastic, multi-tenant side (nil for
	// private-only and desktop).
	PublicDC *cloud.Datacenter
	// PrivateDC is the owned, fixed-capacity side (nil for public-only
	// and desktop).
	PrivateDC *cloud.Datacenter
	// InstanceType is the public flavor rented.
	InstanceType InstanceType
	// PrivateSpec is the VM flavor carved out of private hosts.
	PrivateSpec cloud.InstanceSpec
	// Policy echoes the hybrid policy in force.
	Policy HybridPolicy
	// Provider echoes the catalog used.
	Provider *ProviderCatalog
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

// VMsPerHost returns how many VMs of the given flavor fit on one host,
// limited by the scarcest resource dimension. It never returns less
// than 1 (a flavor larger than the host still gets a dedicated host).
func VMsPerHost(host, vm cloud.Resources) int {
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
// absorb peakRPS of meanServiceSec work at targetUtil utilization. Each
// app server is modeled as one processor-sharing unit.
func ServersForPeak(peakRPS, meanServiceSec, targetUtil float64) int {
	if peakRPS <= 0 || meanServiceSec <= 0 {
		return 1
	}
	if targetUtil <= 0 || targetUtil > 1 {
		targetUtil = 0.6
	}
	n := int(math.Ceil(peakRPS * meanServiceSec / targetUtil))
	if n < 1 {
		n = 1
	}
	return n
}

// resolve validates spec, fills in its defaults and returns the public
// flavor it rents.
func (spec *Spec) resolve() (InstanceType, error) {
	if spec.Students <= 0 {
		return InstanceType{}, fmt.Errorf("deploy: Students = %d, need > 0", spec.Students)
	}
	if spec.Courses < 0 {
		return InstanceType{}, fmt.Errorf("deploy: Courses = %d, need >= 0", spec.Courses)
	}
	if spec.Kind < Public || spec.Kind > Desktop {
		return InstanceType{}, fmt.Errorf("deploy: unknown kind %v", spec.Kind)
	}
	if err := spec.Policy.Validate(); err != nil {
		return InstanceType{}, err
	}
	if spec.Provider == nil {
		spec.Provider = DefaultProvider()
	}
	if spec.InstanceTypeName == "" {
		spec.InstanceTypeName = "m.large"
	}
	if spec.TargetUtil == 0 {
		spec.TargetUtil = 0.6
	}
	if spec.PrivateHostCapacity.IsZero() {
		// Campus hosts hang off a storage array: disk is never the
		// packing bottleneck, CPU is.
		spec.PrivateHostCapacity = cloud.Resources{CPU: 16, Mem: 64, Disk: 8000}
	}
	return spec.Provider.Type(spec.InstanceTypeName)
}

// Size validates spec and works out its capacity plan: the one sizing
// rule every run path shares.
func Size(spec Spec) (Sizing, error) {
	itype, err := spec.resolve()
	if err != nil {
		return Sizing{}, err
	}
	return spec.size(itype), nil
}

// size plans a resolved spec renting itype.
func (spec *Spec) size(itype InstanceType) Sizing {
	sz := Sizing{ServersAtPeak: ServersForPeak(spec.ExpectedPeakRPS, spec.MeanServiceSec, spec.TargetUtil)}
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
		perHost := VMsPerHost(spec.PrivateHostCapacity, itype.Res)
		sz.PrivateHosts = (sz.PrivateServers + perHost - 1) / perHost
	}
	return sz
}

// Place returns where a deployment of kind keeps its assets: all on the
// public cloud for Public; all in-house for Private and for Desktop
// (locally installed software on campus machines); for Hybrid, the
// sensitive assets in-house when policy pins them and everything else
// public.
func Place(kind Kind, policy HybridPolicy) lms.Placement {
	switch kind {
	case Public:
		return lms.AllAt(lms.OnPublic)
	case Hybrid:
		if policy.SensitivePrivate {
			return lms.Placement{Sensitive: lms.OnPrivate, Other: lms.OnPublic}
		}
		return lms.AllAt(lms.OnPublic)
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
	itype, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Kind:         spec.Kind,
		InstanceType: itype,
		Provider:     spec.Provider,
		Policy:       spec.Policy,
		// The private side carves VMs of the same shape as the rented
		// flavor so comparisons are apples-to-apples; on-premise VMs
		// boot faster (no remote API, image is local).
		PrivateSpec: cloud.InstanceSpec{
			Name:      "pvt." + itype.Name,
			Res:       itype.Res,
			BootDelay: sim.LogNormal(40, 0.3),
		},
		Sizing: spec.size(itype),
	}
	if spec.Kind == Public || spec.Kind == Hybrid {
		d.PublicDC = cloud.NewDatacenter(eng, cloud.Config{
			Name:         "public",
			Hosts:        4, // grows elastically
			HostCapacity: cloud.Resources{CPU: 32, Mem: 128, Disk: 4000},
			Placer:       cloud.Spread{},
			MultiTenant:  true,
			Elastic:      true,
		})
	}
	if d.PrivateHosts > 0 {
		d.PrivateDC = cloud.NewDatacenter(eng, cloud.Config{
			Name:         "private",
			Hosts:        d.PrivateHosts,
			HostCapacity: spec.PrivateHostCapacity,
			Placer:       cloud.BestFit{},
			MultiTenant:  false,
			Elastic:      false,
		})
	}
	return d, nil
}

// Shutdown tears down both datacenters.
func (d *Deployment) Shutdown() {
	if d.PublicDC != nil {
		d.PublicDC.Shutdown()
	}
	if d.PrivateDC != nil {
		d.PrivateDC.Shutdown()
	}
}

// Datacenters returns the non-nil datacenters, public first.
func (d *Deployment) Datacenters() []*cloud.Datacenter {
	var out []*cloud.Datacenter
	if d.PublicDC != nil {
		out = append(out, d.PublicDC)
	}
	if d.PrivateDC != nil {
		out = append(out, d.PrivateDC)
	}
	return out
}
