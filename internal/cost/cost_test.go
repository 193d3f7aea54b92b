package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBillPublicOnly(t *testing.T) {
	u := Usage{
		Months:          1,
		VMHoursOnDemand: 100,
		VMHoursReserved: 200,
		EgressGB:        50,
		StorageGBMonths: 1000,
	}
	r, err := Bill(u)
	if err != nil {
		t.Fatal(err)
	}
	wantCompute := 100*0.24 + 200*0.136
	if math.Abs(r.Compute-wantCompute) > 1e-9 {
		t.Fatalf("Compute = %v, want %v", r.Compute, wantCompute)
	}
	if math.Abs(r.Egress-6.0) > 1e-9 {
		t.Fatalf("Egress = %v, want 6", r.Egress)
	}
	if math.Abs(r.Storage-95.0) > 1e-9 {
		t.Fatalf("Storage = %v, want 95", r.Storage)
	}
	if r.Capex != 0 || r.Staff != 0 || r.Integration != 0 || r.Desktop != 0 {
		t.Fatalf("public-only bill has private components: %v", r)
	}
}

func TestBillPrivateOnly(t *testing.T) {
	u := Usage{Months: 12, PrivateHosts: 10}
	r, err := Bill(u)
	if err != nil {
		t.Fatal(err)
	}
	// Capex: 10 hosts * $8000/48 months * 12 = $20,000.
	if math.Abs(r.Capex-20000) > 1e-6 {
		t.Fatalf("Capex = %v, want 20000", r.Capex)
	}
	// Power: 10 * 0.4kW * 1.8 * 730h * 12 * $0.10 = $6307.2.
	if math.Abs(r.Power-6307.2) > 1e-6 {
		t.Fatalf("Power = %v, want 6307.2", r.Power)
	}
	// Staff: 10/20 FTE = 0.5 * 60000 = $30,000/yr.
	if math.Abs(r.Staff-30000) > 1e-6 {
		t.Fatalf("Staff = %v, want 30000", r.Staff)
	}
	// Maintenance: 10 * 800 = $8000/yr.
	if math.Abs(r.Maintenance-8000) > 1e-6 {
		t.Fatalf("Maintenance = %v, want 8000", r.Maintenance)
	}
	if r.Compute != 0 || r.Desktop != 0 {
		t.Fatalf("private-only bill has rented components: %v", r)
	}
}

func TestBillMinAdminFloor(t *testing.T) {
	u := Usage{Months: 12, PrivateHosts: 1}
	r, err := Bill(u)
	if err != nil {
		t.Fatal(err)
	}
	// 1 host would be 0.05 FTE; the floor is 0.25 FTE = $15,000/yr.
	if math.Abs(r.Staff-15000) > 1e-6 {
		t.Fatalf("Staff = %v, want floor 15000", r.Staff)
	}
}

func TestBillHybridOverhead(t *testing.T) {
	u := Usage{Months: 12, HybridMonths: 12}
	r, err := Bill(u)
	if err != nil {
		t.Fatal(err)
	}
	// 12 months of governance plus 12/36 of the setup engagement.
	want := 12*1500.0 + 15000.0/36*12
	if math.Abs(r.Integration-want) > 1e-9 {
		t.Fatalf("Integration = %v, want %v", r.Integration, want)
	}
}

func TestBillDesktopBaseline(t *testing.T) {
	u := Usage{Months: 12, DesktopStudents: 400}
	r, err := Bill(u)
	if err != nil {
		t.Fatal(err)
	}
	// 100 PCs: capex 700/48*12 = 175/yr each; license+support 240/yr.
	want := 100 * (175.0 + 240.0)
	if math.Abs(r.Desktop-want) > 1e-6 {
		t.Fatalf("Desktop = %v, want %v", r.Desktop, want)
	}
}

// TestBillBitExact pins every component of one bill per deployment
// kind to the last bit. The other bill tests compare within a
// tolerance, and no golden or benchmark digest shows a one-ulp change
// in a price formula: folding the private kW factor to 0.72 instead of
// the run-time 0.7200000000000001 moves none of them. The wanted values
// are what each formula gives when every operation rounds to float64,
// which typed price constants keep and untyped ones would not.
func TestBillBitExact(t *testing.T) {
	const months = 2688.0 / 730 // a 16-week semester
	cases := []struct {
		name string
		u    Usage
		want Report
	}{
		{"public", Usage{Months: months, VMHoursOnDemand: 1234.5, VMHoursReserved: 2190.25,
			EgressGB: 321.7, CDNGB: 987.3, StorageGBMonths: 55.25},
			Report{Compute: 594.154, Egress: 38.604, CDN: 59.23799999999999, Storage: 5.24875}},
		{"private, 1 host (admin floor)", Usage{Months: months, PrivateHosts: 1},
			Report{Capex: 613.6986301369863, Power: 193.53600000000003,
				Staff: 4602.739726027397, Maintenance: 245.47945205479454}},
		{"private, 10 hosts", Usage{Months: months, PrivateHosts: 10},
			Report{Capex: 6136.986301369862, Power: 1935.3600000000004,
				Staff: 9205.479452054795, Maintenance: 2454.794520547945}},
		{"hybrid", Usage{Months: months, VMHoursOnDemand: 812.75, EgressGB: 140.2, CDNGB: 402.9,
			StorageGBMonths: 23.1, PrivateHosts: 3, HybridMonths: months},
			Report{Compute: 195.06, Egress: 16.823999999999998, CDN: 24.174, Storage: 2.1945,
				Capex: 1841.0958904109589, Power: 580.6080000000001, Staff: 4602.739726027397,
				Maintenance: 736.4383561643835, Integration: 7057.534246575343}},
		{"desktop", Usage{Months: months, DesktopStudents: 1001},
			Report{Desktop: 31962.958904109593}},
	}
	for _, c := range cases {
		got, err := Bill(c.u)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}

func TestBillRejectsNegativeUsage(t *testing.T) {
	if _, err := Bill(Usage{Months: -1}); err == nil {
		t.Fatal("negative months accepted")
	}
	if _, err := Bill(Usage{EgressGB: -5}); err == nil {
		t.Fatal("negative egress accepted")
	}
}

func TestReportTotalAndAdd(t *testing.T) {
	a := Report{Compute: 1, Egress: 2, Storage: 3, Capex: 4, Power: 5,
		Staff: 6, Maintenance: 7, Integration: 8, Desktop: 9}
	if a.Total() != 45 {
		t.Fatalf("Total = %v", a.Total())
	}
	if s := a.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}

// Property: billing is additive — Bill(u1) + Bill(u2) == Bill(u1+u2)
// for usages without the nonlinear components (admin floor, setup fee,
// desktop ceil).
func TestBillAdditivityProperty(t *testing.T) {
	f := func(h1, h2, e1, e2, s1, s2 uint16) bool {
		u1 := Usage{Months: 1, VMHoursOnDemand: float64(h1), EgressGB: float64(e1), StorageGBMonths: float64(s1)}
		u2 := Usage{Months: 1, VMHoursOnDemand: float64(h2), EgressGB: float64(e2), StorageGBMonths: float64(s2)}
		sum := Usage{Months: 1,
			VMHoursOnDemand: u1.VMHoursOnDemand + u2.VMHoursOnDemand,
			EgressGB:        u1.EgressGB + u2.EgressGB,
			StorageGBMonths: u1.StorageGBMonths + u2.StorageGBMonths,
		}
		r1, err1 := Bill(u1)
		r2, err2 := Bill(u2)
		rs, err3 := Bill(sum)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(r1.Total()+r2.Total()-rs.Total()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The paper's cost trade-off: at low sustained utilization public wins;
// at high sustained utilization private wins. Verify the crossover
// exists at the 2013 prices.
func TestPublicPrivateCrossoverExists(t *testing.T) {
	monthly := func(servers float64, hosts int) (pub, priv float64) {
		uPub := Usage{Months: 1, VMHoursOnDemand: servers * 730}
		uPriv := Usage{Months: 1, PrivateHosts: hosts}
		rp, err := Bill(uPub)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := Bill(uPriv)
		if err != nil {
			t.Fatal(err)
		}
		return rp.Total(), rv.Total()
	}
	// Tiny school: 1 server average -> public should be far cheaper than
	// owning a host + a quarter admin.
	pub, priv := monthly(1, 1)
	if pub >= priv {
		t.Fatalf("small scale: public %v >= private %v", pub, priv)
	}
	// Large university: 64 steady servers on 8 hosts -> private wins.
	pub, priv = monthly(64, 8)
	if pub <= priv {
		t.Fatalf("large scale: public %v <= private %v", pub, priv)
	}
}

func TestPerStudentMonth(t *testing.T) {
	r := Report{Compute: 1200}
	if got := PerStudentMonth(r, 100, 12); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("PerStudentMonth = %v, want 1", got)
	}
	if PerStudentMonth(r, 0, 12) != 0 || PerStudentMonth(r, 100, 0) != 0 {
		t.Fatal("degenerate inputs must yield 0")
	}
}

func TestReservedCheaperThanOnDemand(t *testing.T) {
	od, err := Bill(Usage{Months: 1, VMHoursOnDemand: 730})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Bill(Usage{Months: 1, VMHoursReserved: 730})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total() >= od.Total() {
		t.Fatalf("reserved %v >= on-demand %v", rs.Total(), od.Total())
	}
}

func TestBreakevenMonthlyHours(t *testing.T) {
	h := BreakevenMonthlyHours()
	// 730 * 0.136/0.24 ≈ 413.7 hours.
	if math.Abs(h-730*0.136/0.24) > 1e-9 {
		t.Fatalf("breakeven = %v", h)
	}
}

func TestOptimizeReservedMix(t *testing.T) {
	// One always-on slot (730h), one half-time (365h), one rare (50h),
	// over one month. Breakeven ≈ 414h: only the first is reserved.
	curve := []float64{730, 365, 50}
	mix := OptimizeReservedMix(curve, 1)
	if mix.Reserved != 1 {
		t.Fatalf("Reserved = %d, want 1", mix.Reserved)
	}
	if mix.ReservedHours != 730 || mix.OnDemandHours != 415 {
		t.Fatalf("hours = %v reserved / %v on-demand", mix.ReservedHours, mix.OnDemandHours)
	}
	// The optimum beats both pure strategies for this curve.
	opt := mix.ComputeUSD()
	od := AllOnDemandMix(curve).ComputeUSD()
	ar := AllReservedMix(curve, 1).ComputeUSD()
	if opt > od || opt > ar {
		t.Fatalf("optimal %v beaten by pure (%v / %v)", opt, od, ar)
	}
	// Degenerate months.
	if m := OptimizeReservedMix(curve, 0); m.Reserved != 0 || m.OnDemandHours != 0 {
		t.Fatal("zero-months mix not empty")
	}
}

func TestAllReservedSkipsUnusedRanks(t *testing.T) {
	mix := AllReservedMix([]float64{100, 0, 0}, 1)
	if mix.Reserved != 1 {
		t.Fatalf("Reserved = %d, want 1 (unused ranks skipped)", mix.Reserved)
	}
}

// Property: the optimized mix never costs more than either pure
// strategy, for any nonincreasing duration curve.
func TestOptimizeReservedMixOptimalProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build a nonincreasing curve within one month's hours.
		curve := make([]float64, 0, len(raw))
		prev := 730.0
		for _, r := range raw {
			h := float64(r % 731)
			if h > prev {
				h = prev
			}
			curve = append(curve, h)
			prev = h
		}
		opt := OptimizeReservedMix(curve, 1).ComputeUSD()
		od := AllOnDemandMix(curve).ComputeUSD()
		ar := AllReservedMix(curve, 1).ComputeUSD()
		return opt <= od+1e-9 && opt <= ar+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRatesSane(t *testing.T) {
	if pue < 1 {
		t.Fatal("PUE below 1 is thermodynamically optimistic")
	}
	if reservedHourly >= onDemandHourly {
		t.Fatal("reservations must discount")
	}
	if hybridSetupUSD <= 0 || hybridMonthlyUSD <= 0 {
		t.Fatal("hybrid overhead must be positive (paper §IV.C)")
	}
	if StudentsPerPC <= 0 {
		t.Fatal("lab sharing ratio must be positive")
	}
}
