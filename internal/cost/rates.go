package cost

// The 2013 price book. Each price is a typed float64 constant: Go folds
// a typed constant expression with float64 rounding at every step, as
// the program would at run time. An untyped constant would fold exactly
// (400.0 / 1000 * 1.8 is 0.72, not the run-time 0.7200000000000001),
// and an untyped integer by integer division. TestBillBitExact pins the
// bills these constants give.

// HoursPerMonth is the mean month (8,760 hours a year over 12) every
// monthly figure is measured in.
const HoursPerMonth float64 = 730

// Public prices: rented infrastructure at 2013 list prices, for the
// m.large flavor deploy rents, on demand and reserved, its egress, CDN
// delivery and object storage.
const (
	// onDemandHourly is the pay-as-you-go VM price in USD/hour.
	onDemandHourly float64 = 0.24
	// reservedHourly is the effective hourly price for reserved VMs.
	reservedHourly float64 = 0.136
	// EgressPerGB prices data transfer out in USD/GB.
	EgressPerGB float64 = 0.12
	// cdnPerGB prices content-delivery-network traffic in USD/GB
	// (volume CDN rates undercut raw egress).
	cdnPerGB float64 = 0.06
	// storagePerGBMonth prices object storage in USD/GB-month.
	storagePerGBMonth float64 = 0.095
)

// Private prices: owned infrastructure, 2013-era campus figures.
const (
	// hostCapexUSD is the purchase price of one host.
	hostCapexUSD float64 = 8000
	// hostAmortizationYears spreads host capex straight-line.
	hostAmortizationYears float64 = 4
	// hostPowerWatts is the average draw per host under load.
	hostPowerWatts float64 = 400
	// pue is the power-usage-effectiveness multiplier (cooling and
	// distribution overhead; 2013 campus server rooms ran ~1.8).
	pue float64 = 1.8
	// powerPerKWh is the electricity tariff in USD/kWh.
	powerPerKWh float64 = 0.10
	// adminHostsPerFTE is how many hosts one administrator runs.
	adminHostsPerFTE float64 = 20
	// adminSalaryYear is the loaded annual cost of that administrator.
	adminSalaryYear float64 = 60000
	// minAdminFTE is the floor: owning any hardware costs at least this
	// much attention (a quarter of a person, realistically).
	minAdminFTE float64 = 0.25
	// maintenancePerHostYear covers parts, warranty and incidents.
	maintenancePerHostYear float64 = 800
)

// Hybrid overhead: what §IV.C calls "more expertise and increased
// consultancy costs ... to install and maintain the system", a modest
// integration engagement.
const (
	// hybridSetupUSD is the one-time integration/consultancy
	// engagement, amortized over hybridSetupAmortMonths like any
	// capital outlay.
	hybridSetupUSD float64 = 15000
	// hybridSetupAmortMonths spreads the engagement.
	hybridSetupAmortMonths float64 = 36
	// hybridMonthlyUSD is ongoing governance across two platforms.
	hybridMonthlyUSD float64 = 1500
)

// Desktop prices: the pre-cloud baseline, locally installed software in
// computer labs, at 2013-era lab figures.
const (
	// pcCapexUSD is the price of one lab PC.
	pcCapexUSD float64 = 700
	// pcAmortizationYears spreads PC capex.
	pcAmortizationYears float64 = 4
	// StudentsPerPC is the sharing ratio in labs. It is an untyped
	// integer: the desktop model counts PCs with it, and it converts
	// exactly to 4.0 where the bill divides by it.
	StudentsPerPC = 4
	// licensePerPCYear is the locally installed software license.
	licensePerPCYear float64 = 90
	// supportPerPCYear covers imaging, repairs and upgrades — the
	// "high-powered and high-priced computer" burden §III.1 removes.
	supportPerPCYear float64 = 150
)
