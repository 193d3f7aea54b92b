package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"elearncloud/internal/scenario"
)

// TestWorkloadsPlan builds every workload's configs at two seeds and
// checks that the fidelity planner accepts each one, without running
// any simulation.
func TestWorkloadsPlan(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for _, w := range workloads {
			b, err := prepare(w, seed, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			seeds := map[uint64]bool{}
			for _, j := range b.jobs {
				if j.cfg.Shards != 0 {
					t.Errorf("%s: sets Shards", j.name)
				}
				if seeds[j.cfg.Seed] {
					t.Errorf("%s: seed %d repeats within the workload", j.name, j.cfg.Seed)
				}
				seeds[j.cfg.Seed] = true
			}
		}
	}
	a, _ := prepare(workloads[0], 1, io.Discard)
	b, _ := prepare(workloads[0], 2, io.Discard)
	if a.jobs[0].cfg.Seed == b.jobs[0].cfg.Seed {
		t.Error("-seed does not change the run seeds")
	}
}

func TestCheckLedger(t *testing.T) {
	week := 7 * 24 * time.Hour
	for _, tc := range []struct {
		name   string
		res    scenario.Result
		hybrid bool
		want   string // a substring of the error; empty for a clean ledger
	}{
		{"balanced", scenario.Result{Arrivals: 1000, Served: 990, Rejected: 5, Offline: 4}, false, ""},
		{"outcomes above arrivals", scenario.Result{Arrivals: 1000, Served: 990, Rejected: 11}, false, "exceeds"},
		{"too much in flight", scenario.Result{Arrivals: 1000, Served: 980}, false, "in flight"},
		{"hybrid hours fill the horizon", hybridResult(week, 1670, week.Hours()-1670), true, ""},
		{"hybrid hours miss the horizon", hybridResult(week, 1670, 2), true, "horizon"},
		{"hybrid served nothing", func() scenario.Result {
			r := hybridResult(week, 1670, week.Hours()-1670)
			r.Served = 0
			return r
		}(), true, "served nothing"},
	} {
		err := checkLedger(&tc.res, tc.hybrid)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: checkLedger = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestOutcomeFailsDisagreeingPasses checks that a pass whose digest
// differs from the first pass's counts all its runs as failed.
func TestOutcomeFailsDisagreeingPasses(t *testing.T) {
	s := &summary{passes: []passStats{
		{runs: 3, digest: "a"},
		{runs: 3, digest: "a", failed: 1},
		{runs: 3, digest: "b"},
	}}
	rec, res := s.outcome()
	if rec.Runs != 9 || rec.RunsFailed != 4 || res.Correct || res.Failed != 4 || rec.SimDigest != "a" {
		t.Errorf("outcome = %+v, %+v; want 9 runs, 4 failed, incorrect, digest a", rec, res)
	}
}

func hybridResult(horizon time.Duration, fluidHours, desHours float64) scenario.Result {
	r := scenario.Result{Duration: horizon, Served: 100, FluidSimHours: fluidHours, DESSimHours: desHours}
	r.Cost.Compute = 1
	return r
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkFileMatchesElperf cross-checks BENCHMARK.json against
// elperf both ways: every declared workload and metric exists with its
// unit, and elperf computes no metric the file does not declare.
func TestBenchmarkFileMatchesElperf(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, " ") != strings.Join(ours, " ") {
		t.Errorf("BENCHMARK.json workloads %v, elperf %v", names, ours)
	}
	for _, w := range bf.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, elperf default %d", bf.RunSeconds, defaultSeconds)
	}

	var declaredE2E, declaredLayer []metricDef
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		declaredE2E = append(declaredE2E, metricDef{m.Name, m.Unit})
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for _, m := range bf.PerLayer {
		declaredLayer = append(declaredLayer, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	sameDefs(t, "end_to_end", declaredE2E, endToEnd)
	sameDefs(t, "per_layer", declaredLayer, perLayer)

	seen := map[string]bool{}
	for _, n := range append(names, metricNames(append(declaredE2E, declaredLayer...))...) {
		if !namePattern.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	// elperf's value maps, computed from an empty measurement, hold
	// exactly the declared metrics.
	if _, err := collect(endToEnd, endToEndValues(&summary{})); err != nil {
		t.Errorf("end-to-end values: %v", err)
	}
	if _, err := collect(perLayer, perLayerValues(&summary{})); err != nil {
		t.Errorf("per-layer values: %v", err)
	}
	extra := endToEndValues(&summary{})
	extra["events_per_s"] = 1
	if _, err := collect(endToEnd, extra); err == nil {
		t.Error("collect accepted an undeclared metric")
	}
}

func sameDefs(t *testing.T, what string, declared, ours []metricDef) {
	t.Helper()
	if len(declared) != len(ours) {
		t.Errorf("%s: BENCHMARK.json declares %v, elperf prints %v", what, declared, ours)
		return
	}
	for i := range declared {
		if declared[i] != ours[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %v, elperf %v", what, i, declared[i], ours[i])
		}
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}
