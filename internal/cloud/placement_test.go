package cloud

import (
	"errors"
	"testing"
	"testing/quick"

	"elearncloud/internal/sim"
)

func hostsForPlacement() []*Host {
	cap := Resources{CPU: 8, Mem: 32, Disk: 200}
	hs := []*Host{NewHost(0, cap), NewHost(1, cap), NewHost(2, cap)}
	// Host 0: 75% full. Host 1: 25% full. Host 2: empty.
	h0vm := &VM{ID: 100, Spec: InstanceSpec{Res: Resources{CPU: 6, Mem: 6, Disk: 6}}}
	h1vm := &VM{ID: 101, Spec: InstanceSpec{Res: Resources{CPU: 2, Mem: 2, Disk: 2}}}
	hs[0].place(h0vm)
	hs[1].place(h1vm)
	return hs
}

func TestFirstFitPicksLowestID(t *testing.T) {
	hs := hostsForPlacement()
	if h := firstFit(Resources{CPU: 1, Mem: 1, Disk: 1}, hs); h == nil || h.ID != 0 {
		t.Fatalf("firstFit chose %v, want host 0", h)
	}
	// A demand that does not fit host 0 falls through to host 1.
	if h := firstFit(Resources{CPU: 4, Mem: 4, Disk: 4}, hs); h == nil || h.ID != 1 {
		t.Fatalf("firstFit chose %v, want host 1", h)
	}
}

// TestFirstFitConsolidates: with one VM shape, a private datacenter
// fills each host before it opens the next.
func TestFirstFitConsolidates(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 3) // 8 CPU per host: 4 VMs of 2 CPU each
	for i := 0; i < 10; i++ {
		vm, err := dc.Provision(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if want := i / 4; vm.Host().ID != want {
			t.Fatalf("VM %d on host %d, want %d", i, vm.Host().ID, want)
		}
	}
}

func TestPlacersReportNoCapacity(t *testing.T) {
	hs := hostsForPlacement()
	if h := firstFit(Resources{CPU: 100, Mem: 100, Disk: 100}, hs); h != nil {
		t.Fatalf("firstFit placed an oversized demand on host %d", h.ID)
	}
	// A full private datacenter refuses with ErrNoCapacity.
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2)
	for i := 0; i < 8; i++ {
		if _, err := dc.Provision(testSpec()); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	if _, err := dc.Provision(testSpec()); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestPlacersSkipFailedHosts(t *testing.T) {
	hs := hostsForPlacement()
	hs[0].failed = true
	if h := firstFit(Resources{CPU: 1, Mem: 1, Disk: 1}, hs); h == nil || h.ID != 1 {
		t.Fatalf("firstFit chose %v, want host 1 past the failed host 0", h)
	}
	hs[1].failed = true
	hs[2].failed = true
	if h := firstFit(Resources{CPU: 1, Mem: 1, Disk: 1}, hs); h != nil {
		t.Fatalf("placed on failed host %d", h.ID)
	}
}

// Property: any host first fit returns can actually fit the demand, and
// no lower-ID host could.
func TestPlacementFeasibilityProperty(t *testing.T) {
	f := func(loads []uint8, dc, dm uint8) bool {
		cap := Resources{CPU: 16, Mem: 64, Disk: 500}
		var hs []*Host
		for i, l := range loads {
			if i >= 8 {
				break
			}
			h := NewHost(i, cap)
			f := float64(l%100) / 100
			h.allocated = Resources{CPU: cap.CPU * f, Mem: cap.Mem * f, Disk: cap.Disk * f}
			h.failed = l >= 200
			hs = append(hs, h)
		}
		demand := Resources{CPU: float64(dc%16) + 1, Mem: float64(dm%64) + 1, Disk: 1}
		h := firstFit(demand, hs)
		for _, lower := range hs {
			if h != nil && lower.ID == h.ID {
				return h.CanFit(demand)
			}
			if lower.CanFit(demand) {
				return false
			}
		}
		return h == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
