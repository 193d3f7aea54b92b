package scenario_test

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

// ExampleBatch declares two independent scenario runs as named jobs and
// executes them on a worker pool. The jobs are added with a zero
// Config.Seed, so each gets its own seed derived from (batch seed, job
// name) — worker count changes only how fast the results arrive, never
// what they are, and Result looks each one up by its job name.
func ExampleBatch() {
	cfg := func(kind deploy.Kind) scenario.Config {
		return scenario.Config{
			Kind:              kind, // Seed left zero: derived per job name
			Students:          50,
			ReqPerStudentHour: 20,
			Duration:          20 * time.Minute,
			Diurnal:           workload.FlatDiurnal(),
		}
	}
	runs, err := scenario.NewBatch(7).
		Add("public", cfg(deploy.Public)).
		Add("private", cfg(deploy.Private)).
		RunOn(scenario.NewPool(2))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, name := range []string{"public", "private"} {
		fmt.Printf("%s served requests: %v\n", name, runs.Result(name).Served > 0)
	}
	// Output:
	// public served requests: true
	// private served requests: true
}

// ExamplePool shares one work-conserving pool across two nesting
// levels, the way cmd/elbench shares its -parallel budget between the
// across-experiments loop and each experiment's internal batch. The
// pool caps global concurrency at its worker count; results land in
// their own slots, so the output is deterministic for any cap.
func ExamplePool() {
	pool := scenario.NewPool(4)
	sums := make([]int, 3)
	err := pool.ForEach(3, func(group int) error {
		// Each outer task fans out an inner level on the same pool:
		// tokens freed by a drained group flow to the others.
		parts := make([]int, 4)
		if err := pool.ForEach(4, func(i int) error {
			parts[i] = (group + 1) * (i + 1)
			return nil
		}); err != nil {
			return err
		}
		for _, p := range parts {
			sums[group] += p
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(sums)
	// Output:
	// [10 20 30]
}
