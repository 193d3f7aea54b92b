package deploy

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/cloud"
	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

func TestKindStringsAndList(t *testing.T) {
	want := map[Kind]string{
		Public: "public", Private: "private", Hybrid: "hybrid", Desktop: "desktop",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
	ks := Kinds()
	if len(ks) != 3 || ks[0] != Public || ks[2] != Hybrid {
		t.Errorf("Kinds() = %v", ks)
	}
}

func TestLockinOrdering(t *testing.T) {
	if !(Public.DefaultLockinIndex() > Hybrid.DefaultLockinIndex() &&
		Hybrid.DefaultLockinIndex() > Private.DefaultLockinIndex()) {
		t.Fatal("lock-in must order public > hybrid > private (paper §IV)")
	}
	if Desktop.DefaultLockinIndex() != 0 {
		t.Fatal("desktop baseline has no cloud lock-in")
	}
}

// TestRentedFlavor: the rented m.large boots in 100 s on average, a VM
// carved out of a campus host boots faster, and on neither side does a
// VM serve the instant it is provisioned.
func TestRentedFlavor(t *testing.T) {
	eng := sim.NewEngine(1)
	d, err := Build(eng, baseSpec(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if PublicBoot() != 100*time.Second {
		t.Fatalf("PublicBoot = %v, want 100s", PublicBoot())
	}
	if !(privateBoot.Mean() < publicBoot.Mean()) {
		t.Fatalf("private boot %v is not faster than the rented flavor's %v", privateBoot, publicBoot)
	}
	for _, dc := range []*cloud.Datacenter{d.PublicDC, d.PrivateDC} {
		vm, err := dc.Provision()
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(eng.Now() + time.Second)
		if vm.State() != cloud.VMProvisioning {
			t.Errorf("VM %v one second after provisioning, want still booting", vm.State())
		}
	}
}

func TestServersForPeak(t *testing.T) {
	tests := []struct {
		rps, svc float64
		want     int
	}{
		{100, 0.03, 5}, // 3 busy -> 5 at 60%
		{0, 0.03, 1},   // degenerate
		{100, 0, 1},    // no work per request
		{1, 0.001, 1},  // tiny load -> floor 1
		{1000, 0.03, 50},
	}
	for _, tt := range tests {
		if got := ServersForPeak(tt.rps, tt.svc); got != tt.want {
			t.Errorf("ServersForPeak(%v,%v) = %d, want %d", tt.rps, tt.svc, got, tt.want)
		}
	}
}

// Sizing regression: the private fleet deploy.Build plans must actually
// fit on the hosts it allocates.
func TestPrivateFleetCapacityMatchesPlan(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := baseSpec(Private)
	spec.ExpectedPeakRPS = 300 // 300*0.03/0.6 = 15 servers
	d, err := Build(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.ServersAtPeak; i++ {
		if _, err := d.PrivateDC.Provision(); err != nil {
			t.Fatalf("server %d/%d did not fit the planned hosts: %v",
				i+1, d.ServersAtPeak, err)
		}
	}
}

// placed returns a 500-student, 20-course asset inventory under kind's
// placement.
func placed(kind Kind) lms.Inventory {
	return lms.NewInventory(20, 500, Place(kind))
}

func baseSpec(kind Kind) Spec {
	return Spec{
		Kind:            kind,
		ExpectedPeakRPS: 50,
		MeanServiceSec:  0.03,
	}
}

func TestBuildPublic(t *testing.T) {
	eng := sim.NewEngine(1)
	d, err := Build(eng, baseSpec(Public))
	if err != nil {
		t.Fatal(err)
	}
	if d.PublicDC == nil || d.PrivateDC != nil {
		t.Fatal("public deployment shape wrong")
	}
	if placed(Public).Count(lms.OnPrivate) != 0 {
		t.Fatal("public deployment left assets in-house")
	}
	if d.ServersAtPeak != 3 { // 50*0.03/0.6 = 2.5 -> 3
		t.Fatalf("ServersAtPeak = %d, want 3", d.ServersAtPeak)
	}
}

func TestBuildPrivate(t *testing.T) {
	eng := sim.NewEngine(1)
	d, err := Build(eng, baseSpec(Private))
	if err != nil {
		t.Fatal(err)
	}
	if d.PrivateDC == nil || d.PublicDC != nil {
		t.Fatal("private deployment shape wrong")
	}
	if placed(Private).Count(lms.OnPublic) != 0 {
		t.Fatal("private deployment put assets on public cloud")
	}
	if d.PrivateHosts < 1 {
		t.Fatal("no private hosts sized")
	}
	// Fixed capacity: the DC must not be elastic.
	var provisioned int
	for {
		if _, err := d.PrivateDC.Provision(); err != nil {
			break
		}
		provisioned++
		if provisioned > 1000 {
			t.Fatal("private datacenter appears elastic")
		}
	}
	if provisioned == 0 {
		t.Fatal("could not provision anything on private DC")
	}
}

func TestBuildHybrid(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := baseSpec(Hybrid)
	spec.Policy = DefaultHybridPolicy()
	d, err := Build(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.PublicDC == nil || d.PrivateDC == nil {
		t.Fatal("hybrid needs both sides")
	}
	// Sensitive assets pinned in-house, bulk content public.
	assets := placed(Hybrid)
	if assets.SensitiveCount(lms.OnPublic) != 0 {
		t.Fatal("hybrid leaked sensitive assets to public")
	}
	if assets.Count(lms.OnPublic) == 0 {
		t.Fatal("hybrid placed nothing on public side")
	}
}

func TestBuildDesktop(t *testing.T) {
	eng := sim.NewEngine(1)
	d, err := Build(eng, baseSpec(Desktop))
	if err != nil {
		t.Fatal(err)
	}
	if d.PublicDC != nil || d.PrivateDC != nil {
		t.Fatal("desktop baseline must have no datacenters")
	}
}

func TestBuildValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	withPeak := func(rps, svc float64) Spec {
		s := baseSpec(Private)
		s.ExpectedPeakRPS, s.MeanServiceSec = rps, svc
		return s
	}
	cases := map[string]Spec{
		"bad policy":     {Kind: Hybrid, Policy: HybridPolicy{PrivateBaseShare: 2}},
		"NaN share":      {Kind: Hybrid, ExpectedPeakRPS: 1000, MeanServiceSec: 0.03, Policy: HybridPolicy{PrivateBaseShare: math.NaN()}},
		"bad kind":       {Kind: Kind(42)},
		"NaN peak":       withPeak(math.NaN(), 0.03),
		"+Inf peak":      withPeak(math.Inf(1), 0.03),
		"1e300 peak":     withPeak(1e300, 0.03),
		"+Inf service":   withPeak(50, math.Inf(1)),
		"negative peak":  withPeak(-50, 0.03),
		"negative svc":   withPeak(50, -0.03),
		"product to Inf": withPeak(1e200, 1e200),
	}
	for name, spec := range cases {
		if sz, err := Size(spec); err == nil {
			t.Errorf("%s: Size accepted, sized %+v", name, sz)
		}
		if _, err := Build(eng, spec); err == nil {
			t.Errorf("%s: Build accepted", name)
		}
	}
	if _, err := Build(nil, baseSpec(Public)); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestHybridPrivateSizedToShare(t *testing.T) {
	eng := sim.NewEngine(1)
	full := baseSpec(Private)
	full.ExpectedPeakRPS = 400 // 400*0.03/0.6 = 20 servers
	dFull, err := Build(eng, full)
	if err != nil {
		t.Fatal(err)
	}
	half := baseSpec(Hybrid)
	half.ExpectedPeakRPS = 400
	half.Policy = HybridPolicy{PrivateBaseShare: 0.5}
	dHalf, err := Build(sim.NewEngine(1), half)
	if err != nil {
		t.Fatal(err)
	}
	if dHalf.PrivateHosts >= dFull.PrivateHosts {
		t.Fatalf("hybrid private side (%d hosts) should be smaller than full private (%d)",
			dHalf.PrivateHosts, dFull.PrivateHosts)
	}
}

// Size is the plan Build provisions: Build's datacenters carry exactly
// the Sizing that Size works out without an engine, the private fleet
// is the whole peak for Private and its base share for Hybrid, and a
// private datacenter exists exactly when there are owned hosts.
func TestSizeMatchesBuild(t *testing.T) {
	want := map[Kind]Sizing{
		Public:  {ServersAtPeak: 20},
		Private: {ServersAtPeak: 20, PrivateServers: 20, PrivateHosts: 5},
		Hybrid:  {ServersAtPeak: 20, PrivateServers: 5, PrivateHosts: 2},
		Desktop: {ServersAtPeak: 20},
	}
	for _, kind := range []Kind{Public, Private, Hybrid, Desktop} {
		spec := baseSpec(kind)
		spec.ExpectedPeakRPS = 400 // 400*0.03/0.6 = 20 servers
		spec.Policy = HybridPolicy{PrivateBaseShare: 0.25}
		sz, err := Size(spec)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sz != want[kind] {
			t.Errorf("%v: Size = %+v, want %+v", kind, sz, want[kind])
		}
		d, err := Build(sim.NewEngine(1), spec)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if d.Sizing != sz {
			t.Errorf("%v: Build sized %+v, Size %+v", kind, d.Sizing, sz)
		}
		if (d.PrivateDC != nil) != (sz.PrivateHosts > 0) {
			t.Errorf("%v: private datacenter %v with %d planned hosts", kind, d.PrivateDC != nil, sz.PrivateHosts)
		}
	}
	if _, err := Size(Spec{Kind: Kind(42)}); err == nil {
		t.Error("Size accepted an unknown kind")
	}
}
