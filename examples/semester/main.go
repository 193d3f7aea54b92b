// Semester: an 18-week term for a 2000-student college under each
// deployment model — the cost and utilization trade-off (paper §IV.B,
// §V) over a realistic academic calendar.
//
//	go run ./examples/semester
package main

import (
	"fmt"
	"log"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

func main() {
	sem := workload.StandardSemester()
	fmt.Printf("standard semester: %d weeks, 2000 students\n\n", sem.Len())

	tbl := metrics.NewTable("", "model", "$/student/mo", "VM-hours", "peak servers",
		"private util", "egress GB", "semester total")
	for _, kind := range []deploy.Kind{deploy.Public, deploy.Private, deploy.Hybrid, deploy.Desktop} {
		res, err := scenario.Run(scenario.Config{
			Fidelity: scenario.FidelityFluid,
			Seed:     1,
			Kind:     kind,
			Students: 2000,
			Duration: sem.Duration(),
			Calendar: sem,
		})
		if err != nil {
			log.Fatal(err)
		}
		util := "-"
		if res.MeanPrivateUtil > 0 {
			util = metrics.FmtPercent(res.MeanPrivateUtil)
		}
		tbl.AddRow(kind.String(),
			fmt.Sprintf("%.2f", res.CostPerStudentMonth(2000)),
			fmt.Sprintf("%.0f", res.VMHoursPublic+res.VMHoursPrivate),
			res.PeakServers,
			util,
			fmt.Sprintf("%.0f", res.EgressGB),
			metrics.FmtDollars(res.Cost.Total()))
	}
	fmt.Println(tbl.String())
	fmt.Println("the private fleet idles outside exam weeks (the paper's §IV.B")
	fmt.Println("underutilization argument); the public bill is dominated by")
	fmt.Println("video egress at 2013 transfer prices.")
}
