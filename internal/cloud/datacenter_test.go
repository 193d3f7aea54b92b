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

// newTestDC builds a private datacenter with the given number of hosts,
// whose VMs boot in 60 s.
func newTestDC(eng *sim.Engine, hosts int) *Datacenter {
	return NewDatacenter(eng, Config{Name: "dc", Hosts: hosts, BootDelay: fixed(60)})
}

// newPublicDC builds a public datacenter whose VMs boot in 60 s.
func newPublicDC(eng *sim.Engine) *Datacenter {
	return NewDatacenter(eng, Config{Name: "pub", Public: true, BootDelay: fixed(60)})
}

func TestProvisionLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2)
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != VMProvisioning {
		t.Fatalf("state = %v, want provisioning", vm.State())
	}
	// The 60 s boot ends at 1m: the VM is still booting just before.
	eng.Run(time.Minute - 1)
	if vm.State() != VMProvisioning {
		t.Fatalf("state = %v before the boot delay ends, want provisioning", vm.State())
	}
	eng.Run(time.Minute)
	if vm.State() != VMRunning {
		t.Fatalf("state = %v at 1m, want running", vm.State())
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
	dc := newTestDC(eng, 1) // one host: VMsPerHost slots
	for i := 0; i < VMsPerHost; i++ {
		if _, err := dc.Provision(); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	_, err := dc.Provision()
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestProvisionPublicNeverRefuses(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newPublicDC(eng)
	for i := 0; i < 12; i++ {
		vm, err := dc.Provision()
		if err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
		if vm.Host() != nil {
			t.Fatalf("VM %d placed on host %d; a public datacenter keeps no hosts", i, vm.Host().ID)
		}
	}
	if len(dc.hosts) != 0 {
		t.Fatalf("hosts = %d, want none", len(dc.hosts))
	}
	if len(dc.vms) != 12 {
		t.Fatalf("running VMs = %d", len(dc.vms))
	}
	if dc.FailHost(0) != nil {
		t.Fatal("FailHost on a public datacenter returned victims")
	}
}

func TestNewDatacenterRejectsHostMismatch(t *testing.T) {
	eng := sim.NewEngine(1)
	for name, cfg := range map[string]Config{
		"public with hosts": {Name: "pub", Public: true, Hosts: 1},
		"private, no hosts": {Name: "dc"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewDatacenter(eng, cfg)
		}()
	}
}

func TestTerminateWhileBootingSuppressesReady(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 1)
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(10*time.Second, "kill", func() { dc.Terminate(vm) })
	eng.Run(5 * time.Minute)
	if vm.State() != VMTerminated {
		t.Fatalf("state = %v after the boot delay of a VM terminated mid-boot, want terminated", vm.State())
	}
	// Double-terminate is a no-op.
	dc.Terminate(vm)
}

func TestVMHoursAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2)
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(2*time.Hour, "stop", func() { dc.Terminate(vm) })
	eng.Run(3 * time.Hour)
	if got := dc.VMHours(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("VMHours = %v, want 2", got)
	}
	// A still-running VM accrues hours up to now.
	if _, err := dc.Provision(); err != nil {
		t.Fatal(err)
	}
	eng.Run(4 * time.Hour)
	if got := dc.VMHours(); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("VMHours = %v, want 3 (2 + 1 running)", got)
	}
}

func TestUtilizationTracksPlacement(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2)
	used := func() [2]int { return [2]int{len(dc.hosts[0].vms), len(dc.hosts[1].vms)} }
	if used() != [2]int{} {
		t.Fatal("fresh DC should be idle")
	}
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	if got := used(); got != [2]int{1, 0} {
		t.Fatalf("slots used = %v, want [1 0]", got)
	}
	dc.Terminate(vm)
	if got := used(); got != [2]int{} {
		t.Fatalf("slots used after terminate = %v, want none", got)
	}
	if vm.Host() != nil {
		t.Fatalf("terminated VM still on host %d", vm.Host().ID)
	}
}

func TestFailHostTerminatesVictims(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2)
	var vms []*VM
	for i := 0; i < 4; i++ {
		vm, err := dc.Provision()
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
	vm, err := dc.Provision()
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
	dc := newTestDC(eng, 1)
	if _, err := dc.Provision(); err != nil {
		t.Fatal(err)
	}
	dc.FailHost(0)
	if _, err := dc.Provision(); err == nil {
		t.Fatal("provisioned on failed host")
	}
	dc.RepairHost(0)
	if _, err := dc.Provision(); err != nil {
		t.Fatalf("repaired host rejected provision: %v", err)
	}
	dc.RepairHost(42) // out of range: no-op
}

func TestMultiTenantInterference(t *testing.T) {
	eng := sim.NewEngine(7)
	dc := newPublicDC(eng)
	vm, err := dc.Provision()
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
	dc := newTestDC(eng, 1)
	vm, err := dc.Provision()
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
		dc := newPublicDC(eng)
		var vms []*VM
		for i := 0; i < 6; i++ {
			vm, err := dc.Provision()
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
	h := NewHost(0)
	placed := &VM{ID: 1}
	h.place(placed)
	h.release(&VM{ID: 7}) // not placed: must not free a slot
	if len(h.vms) != 1 || placed.Host() != h {
		t.Fatalf("release of unknown VM changed the host: %d VMs", len(h.vms))
	}
}
