package cloud

import (
	"errors"
	"testing"
	"testing/quick"
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
	h, err := FirstFit{}.Place(Resources{CPU: 1, Mem: 1, Disk: 1}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("FirstFit chose host %d, want 0", h.ID)
	}
	// A demand that does not fit host 0 falls through to host 1.
	h, err = FirstFit{}.Place(Resources{CPU: 4, Mem: 4, Disk: 4}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("FirstFit chose host %d, want 1", h.ID)
	}
}

func TestBestFitConsolidates(t *testing.T) {
	hs := hostsForPlacement()
	h, err := BestFit{}.Place(Resources{CPU: 1, Mem: 1, Disk: 1}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("BestFit chose host %d, want fullest feasible host 0", h.ID)
	}
}

func TestSpreadPicksEmptiest(t *testing.T) {
	hs := hostsForPlacement()
	h, err := Spread{}.Place(Resources{CPU: 1, Mem: 1, Disk: 1}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 2 {
		t.Fatalf("Spread chose host %d, want emptiest host 2", h.ID)
	}
}

func TestPlacersReportNoCapacity(t *testing.T) {
	hs := hostsForPlacement()
	huge := Resources{CPU: 100, Mem: 100, Disk: 100}
	for _, p := range []Placer{FirstFit{}, BestFit{}, Spread{}} {
		if _, err := p.Place(huge, hs); !errors.Is(err, ErrNoCapacity) {
			t.Errorf("%s: err = %v, want ErrNoCapacity", p.Name(), err)
		}
	}
}

func TestPlacersSkipFailedHosts(t *testing.T) {
	hs := hostsForPlacement()
	hs[2].failed = true
	h, err := Spread{}.Place(Resources{CPU: 1, Mem: 1, Disk: 1}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID == 2 {
		t.Fatal("placed on a failed host")
	}
}

func TestPlacerNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Placer{FirstFit{}, BestFit{}, Spread{}} {
		names[p.Name()] = true
	}
	for _, want := range []string{"first-fit", "best-fit", "spread"} {
		if !names[want] {
			t.Errorf("missing placer name %q", want)
		}
	}
}

// Property: any host returned by any placer can actually fit the demand.
func TestPlacementFeasibilityProperty(t *testing.T) {
	placers := []Placer{FirstFit{}, BestFit{}, Spread{}}
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
			hs = append(hs, h)
		}
		if len(hs) == 0 {
			return true
		}
		demand := Resources{CPU: float64(dc%16) + 1, Mem: float64(dm%64) + 1, Disk: 1}
		for _, p := range placers {
			h, err := p.Place(demand, hs)
			if err != nil {
				continue
			}
			if !h.CanFit(demand) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
