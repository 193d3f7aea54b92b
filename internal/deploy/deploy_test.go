package deploy

import (
	"testing"

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

// TestRentedFlavor: the one public flavor is m.large, with a real
// resource footprint and a boot delay, and private hosts carve VMs of
// the same shape.
func TestRentedFlavor(t *testing.T) {
	d, err := Build(sim.NewEngine(1), baseSpec(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	pub, priv := d.PublicSpec, d.PrivateSpec
	if pub.Name != "m.large" || pub.Res.CPU != 4 {
		t.Fatalf("rented flavor = %s %v, want m.large with 4 cores", pub.Name, pub.Res)
	}
	for _, spec := range []cloud.InstanceSpec{pub, priv} {
		if spec.Res.IsZero() || !spec.Res.Valid() {
			t.Errorf("%s: bad resources %v", spec.Name, spec.Res)
		}
		if spec.BootDelay == nil {
			t.Errorf("%s: nil boot delay", spec.Name)
		}
	}
	if priv.Res != pub.Res {
		t.Errorf("private VM %v differs from the rented flavor %v", priv.Res, pub.Res)
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

func TestVMsPerHost(t *testing.T) {
	host := cloud.Resources{CPU: 16, Mem: 64, Disk: 8000}
	tests := []struct {
		vm   cloud.Resources
		want int
	}{
		{cloud.Resources{CPU: 4, Mem: 7.5, Disk: 850}, 4},   // CPU-bound
		{cloud.Resources{CPU: 1, Mem: 32, Disk: 10}, 2},     // memory-bound
		{cloud.Resources{CPU: 1, Mem: 1, Disk: 4000}, 2},    // disk-bound
		{cloud.Resources{CPU: 32, Mem: 1, Disk: 1}, 1},      // bigger than host
		{cloud.Resources{CPU: 0, Mem: 0, Disk: 0}, 1 << 20}, // degenerate
	}
	for _, tt := range tests {
		if got := vmsPerHost(host, tt.vm); got != tt.want {
			t.Errorf("vmsPerHost(%v) = %d, want %d", tt.vm, got, tt.want)
		}
	}
}

// Sizing regression: the private fleet deploy.Build plans must actually
// fit on the hosts it allocates — for every dimension, not just CPU.
func TestPrivateFleetCapacityMatchesPlan(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := baseSpec(Private)
	spec.ExpectedPeakRPS = 300 // 300*0.03/0.6 = 15 servers
	d, err := Build(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.ServersAtPeak; i++ {
		if _, err := d.PrivateDC.Provision(d.PrivateSpec, nil); err != nil {
			t.Fatalf("server %d/%d did not fit the planned hosts: %v",
				i+1, d.ServersAtPeak, err)
		}
	}
}

// placed returns a 500-student, 20-course asset inventory under kind's
// placement.
func placed(kind Kind, policy HybridPolicy) lms.Inventory {
	return lms.NewInventory(20, 500, Place(kind, policy))
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
	if placed(Public, HybridPolicy{}).Count(lms.OnPrivate) != 0 {
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
	if placed(Private, HybridPolicy{}).Count(lms.OnPublic) != 0 {
		t.Fatal("private deployment put assets on public cloud")
	}
	if d.PrivateHosts < 1 {
		t.Fatal("no private hosts sized")
	}
	// Fixed capacity: the DC must not be elastic.
	vmSpec := d.PrivateSpec
	var provisioned int
	for {
		if _, err := d.PrivateDC.Provision(vmSpec, nil); err != nil {
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
	assets := placed(Hybrid, spec.Policy)
	if assets.SensitiveCount(lms.OnPublic) != 0 {
		t.Fatal("hybrid leaked sensitive assets to public")
	}
	if assets.Count(lms.OnPublic) == 0 {
		t.Fatal("hybrid placed nothing on public side")
	}
}

func TestBuildHybridWithoutPinning(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := baseSpec(Hybrid)
	spec.Policy = HybridPolicy{SensitivePrivate: false, PrivateBaseShare: 0.3}
	if _, err := Build(eng, spec); err != nil {
		t.Fatal(err)
	}
	if placed(Hybrid, spec.Policy).SensitiveCount(lms.OnPublic) == 0 {
		t.Fatal("unpinned hybrid should place sensitive assets publicly")
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
	cases := map[string]Spec{
		"bad policy": {Kind: Hybrid, Policy: HybridPolicy{PrivateBaseShare: 2}},
		"bad kind":   {Kind: Kind(42)},
	}
	for name, spec := range cases {
		if _, err := Build(eng, spec); err == nil {
			t.Errorf("%s: accepted", name)
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
	half.Policy = HybridPolicy{SensitivePrivate: true, PrivateBaseShare: 0.5}
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
		spec.Policy = HybridPolicy{SensitivePrivate: true, PrivateBaseShare: 0.25}
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
