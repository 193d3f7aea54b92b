package deploy

import (
	"fmt"

	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// InstanceType is a purchasable VM flavor with its 2013-era list prices.
type InstanceType struct {
	// Name is the flavor name ("m.small").
	Name string
	// Res is the flavor's resource footprint.
	Res cloud.Resources
	// OnDemandHourly is the pay-as-you-go price in USD per hour.
	OnDemandHourly float64
	// ReservedHourly is the effective hourly price with a 1-year
	// reservation (upfront amortized in).
	ReservedHourly float64
	// BootMeanSec is the mean provisioning latency in seconds.
	BootMeanSec float64
}

// Spec converts the type into a cloud.InstanceSpec with a log-normal boot
// delay around BootMeanSec.
func (it InstanceType) Spec() cloud.InstanceSpec {
	return cloud.InstanceSpec{
		Name:      it.Name,
		Res:       it.Res,
		BootDelay: sim.LogNormal(it.BootMeanSec, 0.3),
	}
}

// ProviderCatalog is a public cloud provider's price sheet.
type ProviderCatalog struct {
	// Provider names the vendor ("generic-2013", standing in for the
	// Amazon/Google/Microsoft offerings the paper cites).
	Provider string
	// Types are the purchasable flavors.
	Types []InstanceType
	// EgressPerGB is the data-transfer-out price in USD per GB.
	EgressPerGB float64
	// StoragePerGBMonth is object-storage pricing in USD per GB-month.
	StoragePerGBMonth float64
}

// DefaultProvider returns a catalog with early-2013 list prices (rounded):
// the era the paper surveys. Absolute figures matter less than their
// structure — small instances cheap, egress expensive enough to make
// repatriation hurt.
func DefaultProvider() *ProviderCatalog {
	return &ProviderCatalog{
		Provider: "generic-2013",
		Types: []InstanceType{
			{
				Name:           "m.small",
				Res:            cloud.Resources{CPU: 1, Mem: 1.7, Disk: 160},
				OnDemandHourly: 0.06, ReservedHourly: 0.034, BootMeanSec: 90,
			},
			{
				Name:           "m.medium",
				Res:            cloud.Resources{CPU: 2, Mem: 3.75, Disk: 410},
				OnDemandHourly: 0.12, ReservedHourly: 0.068, BootMeanSec: 90,
			},
			{
				Name:           "m.large",
				Res:            cloud.Resources{CPU: 4, Mem: 7.5, Disk: 850},
				OnDemandHourly: 0.24, ReservedHourly: 0.136, BootMeanSec: 100,
			},
			{
				Name:           "m.xlarge",
				Res:            cloud.Resources{CPU: 8, Mem: 15, Disk: 1690},
				OnDemandHourly: 0.48, ReservedHourly: 0.272, BootMeanSec: 110,
			},
		},
		EgressPerGB:       0.12,
		StoragePerGBMonth: 0.095,
	}
}

// Type returns the named flavor.
func (c *ProviderCatalog) Type(name string) (InstanceType, error) {
	for _, t := range c.Types {
		if t.Name == name {
			return t, nil
		}
	}
	return InstanceType{}, fmt.Errorf("deploy: provider %q has no instance type %q", c.Provider, name)
}
