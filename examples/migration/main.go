// Migration: the institution decides to leave its public cloud provider
// and bring the LMS back in-house — the §III portability risk and
// §IV.C's claim that hybrids make repatriation easier, executed on the
// simulation clock.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/migrate"
	"elearncloud/internal/sim"
)

func main() {
	fmt.Println("repatriation study: 2000-student college leaves its provider")
	fmt.Println()
	tbl := metrics.NewTable("", "starting point", "components to port",
		"re-engineering", "egress", "calendar time", "downtime")

	for _, kind := range []deploy.Kind{deploy.Public, deploy.Hybrid} {
		assets := lms.NewInventory(80, 2000, deploy.Place(kind))
		plan, err := migrate.NewPlan(migrate.LockinProfile{
			Index:     kind.DefaultLockinIndex(),
			DataBytes: assets.BytesAt(lms.OnPublic),
		})
		if err != nil {
			log.Fatal(err)
		}

		// Execute the migration on a simulation engine to get the
		// realized timeline.
		eng := sim.NewEngine(1)
		var result migrate.Result
		migrate.Execute(eng, plan, func(r migrate.Result) { result = r })
		eng.Run(0)

		tbl.AddRow(kind.String(),
			plan.ComponentsToPort,
			metrics.FmtDollars(plan.ReengineerUSD),
			metrics.FmtDollars(plan.EgressUSD),
			result.Duration().Round(time.Hour).String(),
			plan.Downtime.String())
	}
	fmt.Println(tbl.String())
	fmt.Println("the hybrid kept sensitive data and standard interfaces in-house,")
	fmt.Println("so leaving costs a fraction of the all-public exit (paper §IV.C).")
}
