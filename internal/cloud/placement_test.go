package cloud

import (
	"errors"
	"testing"
	"testing/quick"

	"elearncloud/internal/sim"
)

// fill places n VMs on h, numbering them from *next.
func fill(h *Host, n int, next *int) {
	for i := 0; i < n; i++ {
		h.place(&VM{ID: *next})
		*next++
	}
}

// hostsForPlacement returns three hosts: host 0 with one free slot,
// host 1 with VMsPerHost-1 free, host 2 empty.
func hostsForPlacement() []*Host {
	hs := []*Host{NewHost(0), NewHost(1), NewHost(2)}
	next := 100
	fill(hs[0], VMsPerHost-1, &next)
	fill(hs[1], 1, &next)
	return hs
}

func TestFirstFitPicksLowestID(t *testing.T) {
	hs := hostsForPlacement()
	if h := firstFit(hs); h == nil || h.ID != 0 {
		t.Fatalf("firstFit chose %v, want host 0", h)
	}
	// Once host 0's last slot is taken, the VM falls through to host 1.
	next := 200
	fill(hs[0], 1, &next)
	if h := firstFit(hs); h == nil || h.ID != 1 {
		t.Fatalf("firstFit chose %v, want host 1", h)
	}
}

// TestFirstFitConsolidates: a private datacenter fills each host before
// it opens the next.
func TestFirstFitConsolidates(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 3)
	for i := 0; i < 10; i++ {
		vm, err := dc.Provision()
		if err != nil {
			t.Fatal(err)
		}
		if want := i / VMsPerHost; vm.Host().ID != want {
			t.Fatalf("VM %d on host %d, want %d", i, vm.Host().ID, want)
		}
	}
}

func TestPlacersReportNoCapacity(t *testing.T) {
	hs := hostsForPlacement()
	next := 200
	fill(hs[0], 1, &next)
	fill(hs[1], VMsPerHost-1, &next)
	fill(hs[2], VMsPerHost, &next)
	if h := firstFit(hs); h != nil {
		t.Fatalf("firstFit placed a VM on full host %d", h.ID)
	}
	// A full private datacenter refuses with ErrNoCapacity.
	eng := sim.NewEngine(1)
	dc := newTestDC(eng, 2)
	for i := 0; i < 2*VMsPerHost; i++ {
		if _, err := dc.Provision(); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	if _, err := dc.Provision(); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestPlacersSkipFailedHosts(t *testing.T) {
	hs := hostsForPlacement()
	hs[0].failed = true
	if h := firstFit(hs); h == nil || h.ID != 1 {
		t.Fatalf("firstFit chose %v, want host 1 past the failed host 0", h)
	}
	hs[1].failed = true
	hs[2].failed = true
	if h := firstFit(hs); h != nil {
		t.Fatalf("placed on failed host %d", h.ID)
	}
}

// Property: first fit returns the lowest-ID healthy host with a free
// slot, and nil when every host is failed or full.
func TestPlacementFeasibilityProperty(t *testing.T) {
	f := func(loads []uint8) bool {
		var hs []*Host
		next := 0
		for i, l := range loads {
			if i >= 8 {
				break
			}
			h := NewHost(i)
			fill(h, int(l)%(VMsPerHost+1), &next)
			h.failed = l >= 200
			hs = append(hs, h)
		}
		var want *Host
		for _, h := range hs {
			if !h.failed && len(h.vms) < VMsPerHost {
				want = h
				break
			}
		}
		return firstFit(hs) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
