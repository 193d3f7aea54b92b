package cloud

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// fixed is a degenerate distribution: every draw is its value.
type fixed float64

func (d fixed) Sample(*sim.RNG) float64 { return float64(d) }
func (d fixed) Mean() float64           { return float64(d) }
func (d fixed) String() string          { return fmt.Sprintf("fixed(%g)", float64(d)) }

func testSpec() InstanceSpec {
	return InstanceSpec{
		Name:      "m.test",
		Res:       Resources{CPU: 2, Mem: 8, Disk: 50},
		BootDelay: fixed(60), // 60s boot
	}
}

func newTestDC(eng *sim.Engine, hosts int, elastic bool) *Datacenter {
	return NewDatacenter(eng, Config{
		Name:         "dc",
		Hosts:        hosts,
		HostCapacity: Resources{CPU: 8, Mem: 32, Disk: 200},
		Elastic:      elastic,
	})
}

func TestProvisionLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2, false)
	var readyVM *VM
	var readyAt sim.Time
	vm, err := dc.Provision(testSpec(), func(v *VM) { readyVM, readyAt = v, eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != VMProvisioning {
		t.Fatalf("state = %v, want provisioning", vm.State())
	}
	eng.Run(2 * time.Minute)
	if readyVM != vm {
		t.Fatal("ready callback did not fire with the VM")
	}
	if vm.State() != VMRunning {
		t.Fatalf("state = %v, want running", vm.State())
	}
	if readyAt != time.Minute {
		t.Fatalf("ready at %v, want 1m", readyAt)
	}
	dc.Terminate(vm)
	if vm.State() != VMTerminated {
		t.Fatalf("state = %v, want terminated", vm.State())
	}
	if len(dc.vms) != 0 {
		t.Fatalf("running VMs = %d", len(dc.vms))
	}
}

func TestProvisionFixedCapacityExhausts(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 1, false) // one host: 8 CPU => 4 VMs of 2 CPU
	for i := 0; i < 4; i++ {
		if _, err := dc.Provision(testSpec(), nil); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	_, err := dc.Provision(testSpec(), nil)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestProvisionElasticGrowsHosts(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 1, true)
	for i := 0; i < 12; i++ {
		if _, err := dc.Provision(testSpec(), nil); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	if len(dc.hosts) < 3 {
		t.Fatalf("hosts = %d, want >= 3 after elastic growth", len(dc.hosts))
	}
	if len(dc.vms) != 12 {
		t.Fatalf("running VMs = %d", len(dc.vms))
	}
}

func TestProvisionRejectsBadSpec(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 1, false)
	if _, err := dc.Provision(InstanceSpec{Name: "empty"}, nil); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestTerminateWhileBootingSuppressesReady(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 1, false)
	fired := false
	vm, err := dc.Provision(testSpec(), func(*VM) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(10*time.Second, "kill", func() { dc.Terminate(vm) })
	eng.Run(5 * time.Minute)
	if fired {
		t.Fatal("ready fired for a VM terminated mid-boot")
	}
	// Double-terminate is a no-op.
	dc.Terminate(vm)
}

func TestVMHoursAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2, false)
	vm, err := dc.Provision(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(2*time.Hour, "stop", func() { dc.Terminate(vm) })
	eng.Run(3 * time.Hour)
	if got := dc.VMHours(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("VMHours = %v, want 2", got)
	}
	// A still-running VM accrues hours up to now.
	if _, err := dc.Provision(testSpec(), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run(4 * time.Hour)
	if got := dc.VMHours(); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("VMHours = %v, want 3 (2 + 1 running)", got)
	}
}

func TestUtilizationTracksPlacement(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2, false)
	if dc.hosts[0].Utilization() != 0 || dc.hosts[1].Utilization() != 0 {
		t.Fatal("fresh DC should be idle")
	}
	if _, err := dc.Provision(testSpec(), nil); err != nil { // 8 GB of 32 => mem dominant 0.25 on host 0
		t.Fatal(err)
	}
	if got := dc.hosts[0].Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("host 0 utilization = %v, want 0.25", got)
	}
	if got := dc.hosts[1].Utilization(); got != 0 {
		t.Fatalf("host 1 utilization = %v, want 0", got)
	}
}

func TestFailHostTerminatesVictims(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2, false)
	var vms []*VM
	for i := 0; i < 4; i++ {
		vm, err := dc.Provision(testSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	eng.Run(2 * time.Minute)
	victims := dc.FailHost(0)
	if len(victims) != 4 {
		t.Fatalf("victims = %d, want 4 (first-fit packs one host)", len(victims))
	}
	for i := 1; i < len(victims); i++ {
		if victims[i-1].ID >= victims[i].ID {
			t.Fatal("victims not in deterministic ID order")
		}
	}
	if !dc.hosts[0].failed {
		t.Fatal("host not marked failed")
	}
	// New provisions avoid the failed host.
	vm, err := dc.Provision(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Host().ID != 1 {
		t.Fatalf("placed on host %d, want 1", vm.Host().ID)
	}
	if out := dc.FailHost(99); out != nil {
		t.Fatal("FailHost out of range should return nil")
	}
}

func TestRepairHostRestoresCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 1, false)
	if _, err := dc.Provision(testSpec(), nil); err != nil {
		t.Fatal(err)
	}
	dc.FailHost(0)
	if _, err := dc.Provision(testSpec(), nil); err == nil {
		t.Fatal("provisioned on failed host")
	}
	dc.RepairHost(0)
	if _, err := dc.Provision(testSpec(), nil); err != nil {
		t.Fatalf("repaired host rejected provision: %v", err)
	}
	dc.RepairHost(42) // out of range: no-op
}

func TestMultiTenantInterference(t *testing.T) {
	eng := sim.NewEngine(7)
	dc := NewDatacenter(eng, Config{
		Name:         "pub",
		Hosts:        1,
		HostCapacity: Resources{CPU: 64, Mem: 256, Disk: 2000},
		MultiTenant:  true,
		Elastic:      true,
	})
	vm, err := dc.Provision(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(time.Hour)
	if vm.SpeedFactor() >= 1 {
		t.Fatalf("SpeedFactor = %v, want < 1 under multi-tenancy", vm.SpeedFactor())
	}
	if vm.SpeedFactor() < 0.05 {
		t.Fatalf("SpeedFactor = %v, below floor", vm.SpeedFactor())
	}
}

func TestSingleTenantFullSpeed(t *testing.T) {
	eng := sim.NewEngine(7)
	dc := newTestDC(eng, 1, false)
	vm, err := dc.Provision(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(time.Hour)
	if vm.SpeedFactor() != 1 {
		t.Fatalf("SpeedFactor = %v, want 1 on private host", vm.SpeedFactor())
	}
}

func TestDatacenterDeterminism(t *testing.T) {
	run := func() []float64 {
		eng := sim.NewEngine(99)
		dc := NewDatacenter(eng, Config{
			Name:         "pub",
			Hosts:        2,
			HostCapacity: Resources{CPU: 16, Mem: 64, Disk: 500},
			MultiTenant:  true,
			Elastic:      true,
		})
		var vms []*VM
		for i := 0; i < 6; i++ {
			vm, err := dc.Provision(testSpec(), nil)
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm)
		}
		eng.Run(time.Hour)
		var out []float64
		for _, vm := range vms {
			out = append(out, vm.SpeedFactor())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interference diverged at VM %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVMStateString(t *testing.T) {
	if VMProvisioning.String() != "provisioning" ||
		VMRunning.String() != "running" ||
		VMTerminated.String() != "terminated" {
		t.Fatal("state strings wrong")
	}
	if VMState(42).String() != "VMState(42)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestHostReleaseUnknownVMIsNoOp(t *testing.T) {
	h := NewHost(0, Resources{CPU: 4, Mem: 4, Disk: 4})
	vm := &VM{ID: 7, Spec: InstanceSpec{Res: Resources{CPU: 1, Mem: 1, Disk: 1}}}
	h.release(vm) // not placed: must not corrupt accounting
	if !h.allocated.IsZero() {
		t.Fatal("release of unknown VM changed allocation")
	}
}
