package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// noisy's quartile spread is about 60% of its median.
	noisy := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	reversed := make([]float64, len(noisy))
	for i, x := range noisy {
		reversed[len(noisy)-1-i] = x
	}
	eightOfTen := scaled(steady, 0.8)
	eightOfTen[3], eightOfTen[7] = steady[3]*1.05, steady[7]*1.05
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster in every pair", steady, scaled(steady, 0.8), improved},
		{"faster in only 8 pairs of 10", steady, eightOfTen, unchanged},
		{"slower by more than the bound", steady, scaled(steady, 1.2), regressed},
		{"same runs", steady, steady, unchanged},
		{"within the bound", steady, scaled(steady, 1.05), unchanged},
		{"spread wider than the bound", noisy, reversed, unresolved},
	} {
		if got, _ := judge(tc.parent, tc.change, 0.1); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFlags runs -compare on two fabricated sets of saved runs:
// identical sets pass, a slower wall time is a regression, and a digest
// difference is flagged.
func TestCompareFlags(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSet := func(side string, wall float64, slowWorkload, badDigest string) string {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, w := range bf.Workloads {
			for seed := uint64(1); seed <= minPairs; seed++ {
				rec := record{Workload: w.Name, Seed: seed, Runs: 3, SimDigest: "abc"}
				if w.Name == badDigest && seed == 4 {
					rec.SimDigest = "def"
				}
				res := result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{}}
				for _, m := range bf.EndToEnd {
					v := 1 + float64(seed%3)/100
					if m.Name == "wall_s" && w.Name == slowWorkload {
						v *= wall
					}
					res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.Encode(rec)
				enc.Encode(res)
				name := filepath.Join(d, fmt.Sprintf("%s-%d.out", w.Name, seed))
				if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return d
	}
	parent := writeSet("parent", 1, "", "")
	same := writeSet("same", 1, "", "")
	slow := writeSet("slow", 1.3, "ramp-100k", "crowd-burst")

	t.Chdir("../..")
	var out, errOut bytes.Buffer
	if code := runCompare(parent, same, &out, &errOut); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if strings.Contains(out.String(), regressed) || strings.Contains(out.String(), "FLAG") {
		t.Errorf("identical sets reported a difference:\n%s", out.String())
	}

	out.Reset()
	if code := runCompare(parent, slow, &out, &errOut); code != 1 {
		t.Fatalf("slower set: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{
		"FLAG crowd-burst: sim_digest differs in 1 of 10 pairs",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "ramp-100k" || f[1] != "wall_s" {
			continue
		}
		if f[len(f)-1] != regressed {
			t.Errorf("ramp-100k wall_s: %s", line)
		}
	}
}
