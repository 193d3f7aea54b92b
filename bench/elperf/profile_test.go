package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestAttributeFixture pins the attribution rules on a committed
// `pprof -traces` listing: the innermost project frame wins, sim splits
// into engine and rng, background GC has its own bucket, and stacks in
// no named layer count as other.
func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frac, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.rng":       0.3, // a lognormal draw, and NHPP under the workload stream
		"sim.engine":    0.2,
		"lms":           0.1, // runtime.mallocgc under Cluster.Submit
		"network":       0.1,
		"runtime.gc_bg": 0.1,
		"other":         0.2, // cost (not a named layer) and a syscall under main
	}
	sum := 0.0
	for _, l := range layers {
		if math.Abs(frac[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, frac[l], want[l])
		}
		sum += frac[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	for l := range frac {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %q", l)
		}
	}
}

func TestAttributeRejectsEmptyProfile(t *testing.T) {
	if _, err := attribute(strings.NewReader("File: elperf\nType: cpu\n")); err == nil {
		t.Error("a header without samples was accepted")
	}
}
