// Mooc: a course that outgrows its campus — enrollment climbs 50k→500k
// while a worldwide cohort spreads the day and a graded deadline
// stampedes the finish (paper §IV.A at MOOC scale; cf. Beştaş on MOOCs
// and cloud computing). Exercises the internal/workload MOOC family:
// growth curves, timezone superposition, deadline storms, and the
// piecewise NHPP envelope that keeps generating all of it O(arrivals).
//
//	go run ./examples/mooc
package main

import (
	"fmt"
	"log"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

func main() {
	week := 7 * 24 * time.Hour
	growth := workload.LogisticGrowth(50000, 500000, 4*week)
	fmt.Printf("viral course: %s over a 10-week run\n", growth)
	for _, w := range []int{0, 2, 4, 6, 9} {
		fmt.Printf("  week %d: %7.0f active students\n", w+1, growth.At(time.Duration(w)*week))
	}

	// A global cohort flattens the campus evening peak: four regional
	// bands, each living its own day.
	campus, global := workload.CampusDiurnal(), workload.GlobalCohort()
	fmt.Printf("\nday-shape peak: campus %.1fx -> global cohort %.2fx (overnight floor %.2fx -> %.2fx)\n",
		campus.Peak(), global.Peak(), campus.At(3*time.Hour), global.At(3*time.Hour))

	// The whole course at fluid fidelity, per deployment model.
	fmt.Println("\nthe 10-week course under each deployment model (fluid fidelity):")
	tbl := metrics.NewTable("", "model", "$/student/mo", "VM-hours", "peak servers", "private util")
	for _, kind := range []deploy.Kind{deploy.Public, deploy.Private, deploy.Hybrid} {
		res, err := scenario.Run(scenario.Config{
			Fidelity:          scenario.FidelityFluid,
			Seed:              1,
			Kind:              kind,
			Growth:            growth,
			ReqPerStudentHour: 8,
			Duration:          10 * week,
			Diurnal:           workload.GlobalCohort(),
		})
		if err != nil {
			log.Fatal(err)
		}
		util := "-"
		if res.MeanPrivateUtil > 0 {
			util = metrics.FmtPercent(res.MeanPrivateUtil)
		}
		tbl.AddRow(kind.String(),
			fmt.Sprintf("%.2f", res.CostPerStudentMonth(500000)),
			fmt.Sprintf("%.0f", res.VMHoursPublic+res.VMHoursPrivate),
			res.PeakServers, util)
	}
	fmt.Println(tbl.String())

	// A deadline storm, generated directly: the procrastination ramp
	// multiplies the rate 10x at the cliff, and the piecewise envelope
	// keeps thinning acceptance high the whole way.
	gen, err := workload.NewGenerator(workload.Config{
		Students:          20000,
		ReqPerStudentHour: 2,
		Diurnal:           workload.FlatDiurnal(),
		Storms: []workload.DeadlineStorm{{
			Deadline: 12 * time.Hour, Ramp: 6 * time.Hour, PeakMult: 10,
			Tau: time.Hour, ExamTraffic: true,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	s := gen.Stream(sim.NewRNG(1), 0)
	perHour := make([]int, 13)
	for {
		a, ok := s.Next(13 * time.Hour)
		if !ok {
			break
		}
		if h := int(a.At / time.Hour); h < len(perHour) {
			perHour[h]++
		}
	}
	proposed, accepted := s.Thinning()
	fmt.Println("deadline storm, 20k students, 2 req/student-h, deadline at hour 12:")
	for h, n := range perHour {
		bar := ""
		for i := 0; i < n/4000; i++ {
			bar += "#"
		}
		fmt.Printf("  h%02d %7d %s\n", h, n, bar)
	}
	fmt.Printf("thinning acceptance %.1f%% (%d of %d candidates) — the piecewise\n",
		float64(accepted)/float64(proposed)*100, accepted, proposed)
	fmt.Println("envelope re-bounds each segment instead of paying the 10x peak all day.")
}
