package experiments

import (
	"fmt"
	"sort"
	"strings"

	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the experiment identifier from ARCHITECTURE.md's experiment
	// index ("table1", "figure3", ...).
	ID string
	// Title is a human-readable one-liner.
	Title string
	// Tags classify the experiment for `elbench -list -tag` filtering
	// and the docs/SCENARIOS.md catalog ("@paper", "@mooc", "@storm",
	// ...). Every experiment must carry at least one; check-docs.sh
	// fails the build on a tagless entry.
	Tags []string
	// Run regenerates the artifact. pool is the shared worker pool its
	// independent scenario jobs fan out on — typically the suite-wide
	// pool cmd/elbench threads through every experiment, so a core
	// freed by any experiment is claimed by any other (nil means a
	// one-off scenario.DefaultWorkers pool). The rendered table is
	// byte-identical for every pool, because each job's randomness is
	// fixed at submission (rooted at its Config.Seed, set from the
	// experiment seed) and results are collected in submission order.
	Run func(seed uint64, pool *scenario.Pool) (*metrics.Table, error)
}

// tags splits a space-separated tag literal, keeping the registry
// entries on one line each.
func tags(s string) []string { return strings.Fields(s) }

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Merits of cloud e-learning vs desktop (§III)", tags("@paper @des @cost"), Table1Merits},
		{"table2", "Risks by deployment model (§III)", tags("@paper @des @network @security"), Table2Risks},
		{"table3", "Deployment comparison matrix (§IV-§V)", tags("@paper @des @fluid @cost"), Table3Matrix},
		{"table4", "Hybrid unit-distribution ablation (§IV.C)", tags("@paper @des @security"), Table4HybridAblation},
		{"table5", "Autoscaler ablation (exam crowd)", tags("@paper @des @crowd @scaling"), Table5Autoscalers},
		{"table6", "Advisor recommendations per profile (§II)", tags("@paper @analytic"), Table6Advisor},
		{"figure1", "Workload shape: diurnal and semester", tags("@paper @analytic"), Figure1Workload},
		{"figure2", "P95 latency through an exam crowd", tags("@paper @des @crowd @scaling"), Figure2ExamSpike},
		{"figure3", "TCO per student vs institution size", tags("@paper @fluid @cost"), Figure3CostCrossover},
		{"figure4", "Private utilization vs elastic fleet", tags("@paper @fluid @scaling"), Figure4Utilization},
		{"figure5", "Lost work vs last-mile reliability", tags("@paper @des @network @chaos"), Figure5NetworkRisk},
		{"figure6", "Security incidents over 10 years", tags("@paper @security @chaos"), Figure6Security},
		{"figure7", "Migration cost vs lock-in index", tags("@paper @analytic @cost"), Figure7Lockin},
		// Extension experiments ("future work the paper gestures at";
		// see ARCHITECTURE.md).
		{"table7", "National shared private cloud (§IV.C/§V)", tags("@extension @analytic @cost"), Table7Federation},
		{"table8", "Reserved vs on-demand purchase mix", tags("@extension @fluid @cost"), Table8PurchaseMix},
		{"figure8", "CDN ablation on the cost crossover", tags("@extension @fluid @cdn @cost"), Figure8CDN},
		{"figure9", "Physical damage to the on-premise unit", tags("@extension @des @chaos"), Figure9HostFailure},
		// MOOC-scale experiments (enrollment growth, deadline storms;
		// see internal/workload's MOOC family and docs/SCENARIOS.md).
		{"table9", "Deployment models under enrollment growth", tags("@mooc @growth @fluid @des @scaling @cost"), Table9GrowthModels},
		{"figure10", "P95 latency through a deadline storm", tags("@mooc @storm @des @scaling"), Figure10DeadlineStorm},
		// Scale experiments (sharded DES; see internal/scenario/sharded.go).
		{"table10", "Sharded DES onboarding ramp at 10^5 students", tags("@mooc @growth @des @scaling @sharded"), Table10ShardedRamp},
		// Hybrid-fidelity experiments (fluid ⇄ DES; see internal/scenario/hybrid.go).
		{"table11", "Auto-fidelity hybrid on the 500k MOOC course", tags("@mooc @growth @fluid @des @scaling"), Table11HybridCourse},
		// Forecasting experiments (growth-fit scaler, oracle yardstick;
		// see internal/scale/growthfit.go).
		{"table12", "Forecasting policies through the deadline storm", tags("@mooc @storm @des @scaling @cost"), Table12ForecastPolicies},
	}
}

// KnownTags returns the union of every registered tag, sorted.
func KnownTags() []string {
	set := map[string]bool{}
	for _, e := range All() {
		for _, t := range e.Tags {
			set[t] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// HasTag reports whether the experiment carries tag (with or without
// the leading @).
func (e Experiment) HasTag(tag string) bool {
	if !strings.HasPrefix(tag, "@") {
		tag = "@" + tag
	}
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// At returns e with its runs pinned to one Config.Shards (table10's
// ramp) or one Config.Fidelity (table11's course), as elbench's
// -shards and -fidelity set them. A zero knob keeps the registry
// default; the two do not combine, and no other experiment takes one.
func (e Experiment) At(shards int, fidelity scenario.Fidelity) (Experiment, error) {
	switch {
	case shards != 0 && fidelity != 0:
		return e, fmt.Errorf("experiments: a shard count and a fidelity do not combine")
	case shards != 0 && e.ID == "table10":
		e.Run = func(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
			return tableForShards(seed, pool, []int{shards})
		}
	case fidelity != 0 && e.ID == "table11":
		e.Run = func(seed uint64, pool *scenario.Pool) (*metrics.Table, error) {
			return table11At(seed, pool, fidelity)
		}
	case shards != 0:
		return e, fmt.Errorf("experiments: %s has no sharded variant", e.ID)
	case fidelity != 0:
		return e, fmt.Errorf("experiments: %s has no fidelity variant", e.ID)
	}
	return e, nil
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
