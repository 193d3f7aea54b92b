package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 4, Mem: 16, Disk: 100}
	b := Resources{CPU: 1, Mem: 2, Disk: 10}
	sum := a.Add(b)
	if sum != (Resources{CPU: 5, Mem: 18, Disk: 110}) {
		t.Fatalf("Add = %v", sum)
	}
	diff := a.Sub(b)
	if diff != (Resources{CPU: 3, Mem: 14, Disk: 90}) {
		t.Fatalf("Sub = %v", diff)
	}
	if !b.Fits(a) {
		t.Fatal("b should fit in a")
	}
	if a.Fits(b) {
		t.Fatal("a should not fit in b")
	}
}

func TestResourcesAddSubRoundTrip(t *testing.T) {
	f := func(ac, am, ad, bc, bm, bd uint8) bool {
		a := Resources{CPU: float64(ac), Mem: float64(am), Disk: float64(ad)}
		b := Resources{CPU: float64(bc), Mem: float64(bm), Disk: float64(bd)}
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourcesFlags(t *testing.T) {
	if !(Resources{}).IsZero() {
		t.Fatal("zero value not IsZero")
	}
	if (Resources{CPU: 1}).IsZero() {
		t.Fatal("nonzero reported IsZero")
	}
	if !(Resources{CPU: 1}).Valid() {
		t.Fatal("valid reported invalid")
	}
	if (Resources{CPU: -1}).Valid() {
		t.Fatal("negative reported valid")
	}
}

func TestResourcesDominant(t *testing.T) {
	cap := Resources{CPU: 10, Mem: 100, Disk: 1000}
	used := Resources{CPU: 5, Mem: 90, Disk: 100}
	if got := used.Dominant(cap); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("Dominant = %v, want 0.9 (memory bound)", got)
	}
	// Demand on a zero-capacity dimension saturates.
	if got := (Resources{Disk: 1}).Dominant(Resources{CPU: 1, Mem: 1}); got != 1 {
		t.Fatalf("zero-capacity Dominant = %v, want 1", got)
	}
	if got := (Resources{}).Dominant(cap); got != 0 {
		t.Fatalf("empty Dominant = %v, want 0", got)
	}
}

func TestResourcesString(t *testing.T) {
	s := Resources{CPU: 2, Mem: 8, Disk: 50}.String()
	if s != "{cpu=2 mem=8GB disk=50GB}" {
		t.Fatalf("String = %q", s)
	}
}
