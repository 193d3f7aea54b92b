package cost

// PublicRates prices rented infrastructure (2013-era list prices).
type PublicRates struct {
	// OnDemandHourly is the pay-as-you-go VM price in USD/hour.
	OnDemandHourly float64
	// ReservedHourly is the effective hourly price for reserved VMs.
	ReservedHourly float64
	// EgressPerGB prices data transfer out in USD/GB.
	EgressPerGB float64
	// CDNPerGB prices content-delivery-network traffic in USD/GB
	// (volume CDN rates undercut raw egress).
	CDNPerGB float64
	// StoragePerGBMonth prices object storage in USD/GB-month.
	StoragePerGBMonth float64
}

// DefaultPublicRates is the one 2013 public price sheet: the m.large
// flavor deploy rents, on demand and reserved, its egress, CDN delivery
// and object storage. Every bill and the migration model's egress price
// read it.
func DefaultPublicRates() PublicRates {
	return PublicRates{
		OnDemandHourly:    0.24,
		ReservedHourly:    0.136,
		EgressPerGB:       0.12,
		CDNPerGB:          0.06,
		StoragePerGBMonth: 0.095,
	}
}

// PrivateRates prices owned infrastructure.
type PrivateRates struct {
	// HostCapexUSD is the purchase price of one host.
	HostCapexUSD float64
	// AmortizationYears spreads capex straight-line.
	AmortizationYears float64
	// HostPowerWatts is the average draw per host under load.
	HostPowerWatts float64
	// PUE is the power-usage-effectiveness multiplier (cooling and
	// distribution overhead; 2013 campus server rooms ran ~1.8).
	PUE float64
	// PowerPerKWh is the electricity tariff in USD/kWh.
	PowerPerKWh float64
	// AdminHostsPerFTE is how many hosts one administrator runs.
	AdminHostsPerFTE float64
	// AdminSalaryYear is the loaded annual cost of that administrator.
	AdminSalaryYear float64
	// MinAdminFTE is the floor: owning any hardware costs at least this
	// much attention (a quarter of a person, realistically).
	MinAdminFTE float64
	// MaintenancePerHostYear covers parts, warranty and incidents.
	MaintenancePerHostYear float64
}

// DefaultPrivateRates returns 2013-era campus figures.
func DefaultPrivateRates() PrivateRates {
	return PrivateRates{
		HostCapexUSD:           8000,
		AmortizationYears:      4,
		HostPowerWatts:         400,
		PUE:                    1.8,
		PowerPerKWh:            0.10,
		AdminHostsPerFTE:       20,
		AdminSalaryYear:        60000,
		MinAdminFTE:            0.25,
		MaintenancePerHostYear: 800,
	}
}

// HybridOverhead prices what §IV.C calls "more expertise and increased
// consultancy costs ... to install and maintain the system".
type HybridOverhead struct {
	// SetupUSD is the one-time integration/consultancy engagement,
	// amortized over SetupAmortMonths like any capital outlay.
	SetupUSD float64
	// SetupAmortMonths spreads the engagement (default 36).
	SetupAmortMonths float64
	// MonthlyUSD is ongoing governance across two platforms.
	MonthlyUSD float64
}

// DefaultHybridOverhead returns a modest integration engagement.
func DefaultHybridOverhead() HybridOverhead {
	return HybridOverhead{SetupUSD: 15000, SetupAmortMonths: 36, MonthlyUSD: 1500}
}

// DesktopRates prices the pre-cloud baseline: locally installed software
// in computer labs.
type DesktopRates struct {
	// PCCapexUSD is the price of one lab PC.
	PCCapexUSD float64
	// AmortizationYears spreads PC capex.
	AmortizationYears float64
	// StudentsPerPC is the sharing ratio in labs.
	StudentsPerPC float64
	// LicensePerPCYear is the locally installed software license.
	LicensePerPCYear float64
	// SupportPerPCYear covers imaging, repairs and upgrades — the
	// "high-powered and high-priced computer" burden §III.1 removes.
	SupportPerPCYear float64
}

// DefaultDesktopRates returns 2013-era lab figures.
func DefaultDesktopRates() DesktopRates {
	return DesktopRates{
		PCCapexUSD:        700,
		AmortizationYears: 4,
		StudentsPerPC:     4,
		LicensePerPCYear:  90,
		SupportPerPCYear:  150,
	}
}
