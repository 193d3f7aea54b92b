package cost

import (
	"fmt"
	"math"
)

// Usage is the raw consumption a simulation measured over a period.
type Usage struct {
	// Months is the accounting period length.
	Months float64
	// VMHoursOnDemand and VMHoursReserved are public-cloud compute hours
	// billed at the respective rates.
	VMHoursOnDemand float64
	VMHoursReserved float64
	// EgressGB is data transferred out of the public cloud.
	EgressGB float64
	// CDNGB is data delivered through the provider's CDN.
	CDNGB float64
	// StorageGBMonths is public object storage (GB × months).
	StorageGBMonths float64
	// PrivateHosts is the owned fleet size (constant over the period).
	PrivateHosts int
	// HybridMonths bills dual-platform governance plus the amortized
	// setup engagement for this many months (0 for non-hybrid).
	HybridMonths float64
	// DesktopStudents sizes the lab fleet for the desktop baseline.
	DesktopStudents int
}

// Validate rejects negative consumption.
func (u Usage) Validate() error {
	switch {
	case u.Months < 0, u.VMHoursOnDemand < 0, u.VMHoursReserved < 0,
		u.EgressGB < 0, u.CDNGB < 0, u.StorageGBMonths < 0, u.PrivateHosts < 0,
		u.HybridMonths < 0, u.DesktopStudents < 0:
		return fmt.Errorf("cost: negative usage component: %+v", u)
	}
	return nil
}

// Report is an itemized cost breakdown in USD for a Usage period.
type Report struct {
	// Compute is rented VM-hours (on-demand + reserved).
	Compute float64
	// Egress is public data-transfer-out.
	Egress float64
	// CDN is content-delivery traffic.
	CDN float64
	// Storage is public object storage.
	Storage float64
	// Capex is the amortized share of owned hardware for the period.
	Capex float64
	// Power is electricity including PUE overhead.
	Power float64
	// Staff is administration labor.
	Staff float64
	// Maintenance is parts/warranty/incidents on owned hardware.
	Maintenance float64
	// Integration is hybrid setup + governance overhead.
	Integration float64
	// Desktop is the lab-PC baseline bundle (capex+license+support).
	Desktop float64
}

// Total sums all components.
func (r Report) Total() float64 {
	return r.Compute + r.Egress + r.CDN + r.Storage + r.Capex + r.Power +
		r.Staff + r.Maintenance + r.Integration + r.Desktop
}

// String renders the breakdown compactly.
func (r Report) String() string {
	return fmt.Sprintf(
		"total=$%.2f (compute=%.2f egress=%.2f cdn=%.2f storage=%.2f capex=%.2f power=%.2f staff=%.2f maint=%.2f integ=%.2f desktop=%.2f)",
		r.Total(), r.Compute, r.Egress, r.CDN, r.Storage, r.Capex, r.Power,
		r.Staff, r.Maintenance, r.Integration, r.Desktop)
}

// Bill prices a Usage at the 2013 price book.
func Bill(u Usage) (Report, error) {
	if err := u.Validate(); err != nil {
		return Report{}, err
	}
	var r Report

	// Public side.
	r.Compute = u.VMHoursOnDemand*onDemandHourly +
		u.VMHoursReserved*reservedHourly
	r.Egress = u.EgressGB * EgressPerGB
	r.CDN = u.CDNGB * cdnPerGB
	r.Storage = u.StorageGBMonths * storagePerGBMonth

	// Private side.
	if u.PrivateHosts > 0 && u.Months > 0 {
		hosts := float64(u.PrivateHosts)
		monthlyCapex := hostCapexUSD / (hostAmortizationYears * 12)
		r.Capex = hosts * monthlyCapex * u.Months

		kw := hostPowerWatts / 1000 * pue
		hours := u.Months * HoursPerMonth
		r.Power = hosts * kw * hours * powerPerKWh

		fte := hosts / adminHostsPerFTE
		if fte < minAdminFTE {
			fte = minAdminFTE
		}
		r.Staff = fte * adminSalaryYear / 12 * u.Months

		r.Maintenance = hosts * maintenancePerHostYear / 12 * u.Months
	}

	// Hybrid overhead: governance plus the amortized setup engagement.
	if u.HybridMonths > 0 {
		r.Integration = u.HybridMonths * (hybridMonthlyUSD + hybridSetupUSD/hybridSetupAmortMonths)
	}

	// Desktop baseline.
	if u.DesktopStudents > 0 && u.Months > 0 {
		pcs := math.Ceil(float64(u.DesktopStudents) / StudentsPerPC)
		monthlyPC := pcCapexUSD/(pcAmortizationYears*12) +
			(licensePerPCYear+supportPerPCYear)/12
		r.Desktop = pcs * monthlyPC * u.Months
	}
	return r, nil
}

// PerStudentMonth normalizes a report to USD per student per month.
func PerStudentMonth(r Report, students int, months float64) float64 {
	if students <= 0 || months <= 0 {
		return 0
	}
	return r.Total() / float64(students) / months
}

// BreakevenMonthlyHours returns the running hours per month above which
// a reserved instance undercuts on-demand for the same capacity: the
// reservation's effective hourly price is charged around the clock, so
// it pays off once utilization exceeds the price ratio.
func BreakevenMonthlyHours() float64 {
	return HoursPerMonth * reservedHourly / onDemandHourly
}

// PurchaseMix is the result of optimizing the reserved/on-demand split
// for an elastic fleet.
type PurchaseMix struct {
	// Reserved is how many instance slots to reserve.
	Reserved int
	// ReservedHours bills at the reserved rate: every reserved slot is
	// paid for around the clock whether used or not.
	ReservedHours float64
	// OnDemandHours is the remaining burst capacity billed hourly.
	OnDemandHours float64
}

// ComputeUSD prices the mix.
func (m PurchaseMix) ComputeUSD() float64 {
	return m.ReservedHours*reservedHourly + m.OnDemandHours*onDemandHourly
}

// OptimizeReservedMix chooses how many slots to reserve given the
// fleet's utilization duration curve: rankHours[k] is how many hours the
// (k+1)-th server was running over the period of `months` months. Slots
// that run longer than the breakeven are reserved (and then billed for
// the full period); the rest stay on-demand. The duration curve is
// nonincreasing by construction, so the split is a prefix.
func OptimizeReservedMix(rankHours []float64, months float64) PurchaseMix {
	if months <= 0 {
		return PurchaseMix{}
	}
	breakeven := BreakevenMonthlyHours() * months
	var mix PurchaseMix
	for _, h := range rankHours {
		if h > breakeven {
			mix.Reserved++
			mix.ReservedHours += HoursPerMonth * months
			continue
		}
		mix.OnDemandHours += h
	}
	return mix
}

// AllOnDemandMix prices the same curve with no reservations.
func AllOnDemandMix(rankHours []float64) PurchaseMix {
	var mix PurchaseMix
	for _, h := range rankHours {
		mix.OnDemandHours += h
	}
	return mix
}

// AllReservedMix reserves a slot for every rank that ever ran.
func AllReservedMix(rankHours []float64, months float64) PurchaseMix {
	var mix PurchaseMix
	for _, h := range rankHours {
		if h > 0 {
			mix.Reserved++
			mix.ReservedHours += HoursPerMonth * months
		}
	}
	return mix
}
