// Package elearncloud_test is the reproduction's benchmark harness: one
// benchmark per table and figure in ARCHITECTURE.md's experiment index, each
// printing the regenerated artifact, plus micro-benchmarks of the hot
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// and compare the printed tables against a previous run (or regenerate
// them with cmd/elbench; the artifacts are deterministic per seed).
package elearncloud_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"elearncloud/internal/cloud"
	"elearncloud/internal/deploy"
	"elearncloud/internal/experiments"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// benchSeed keeps every benchmark's artifact identical run to run.
const benchSeed = 1

var printOnce sync.Map

// runExperiment executes one registered experiment per iteration and
// prints its table a single time per process. Experiments run with a
// one-off default worker pool (one worker per CPU); their artifacts are
// byte-identical to a serial run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *metrics.Table
	for i := 0; i < b.N; i++ {
		tbl, err = exp.Run(benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && tbl != nil {
		fmt.Fprintf(os.Stdout, "\n%s\n", tbl.String())
	}
}

// --- one benchmark per table/figure (ARCHITECTURE.md experiment index) --

func BenchmarkTable1Merits(b *testing.B)         { runExperiment(b, "table1") }
func BenchmarkTable2Risks(b *testing.B)          { runExperiment(b, "table2") }
func BenchmarkTable3Matrix(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkTable4HybridAblation(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5Autoscalers(b *testing.B)    { runExperiment(b, "table5") }
func BenchmarkTable6Advisor(b *testing.B)        { runExperiment(b, "table6") }
func BenchmarkFigure1Workload(b *testing.B)      { runExperiment(b, "figure1") }
func BenchmarkFigure2ExamSpike(b *testing.B)     { runExperiment(b, "figure2") }
func BenchmarkFigure3CostCrossover(b *testing.B) { runExperiment(b, "figure3") }
func BenchmarkFigure4Utilization(b *testing.B)   { runExperiment(b, "figure4") }
func BenchmarkFigure5NetworkRisk(b *testing.B)   { runExperiment(b, "figure5") }
func BenchmarkFigure6Security(b *testing.B)      { runExperiment(b, "figure6") }
func BenchmarkFigure7Lockin(b *testing.B)        { runExperiment(b, "figure7") }

// Extension experiments (see ARCHITECTURE.md):
func BenchmarkTable7Federation(b *testing.B)   { runExperiment(b, "table7") }
func BenchmarkTable8PurchaseMix(b *testing.B)  { runExperiment(b, "table8") }
func BenchmarkFigure8CDN(b *testing.B)         { runExperiment(b, "figure8") }
func BenchmarkFigure9HostFailure(b *testing.B) { runExperiment(b, "figure9") }

// MOOC-scale experiments (enrollment growth, deadline storms):
func BenchmarkTable9GrowthModels(b *testing.B)    { runExperiment(b, "table9") }
func BenchmarkFigure10DeadlineStorm(b *testing.B) { runExperiment(b, "figure10") }

// --- substrate micro-benchmarks ----------------------------------------

// BenchmarkEngineEvents measures raw event throughput of the DES kernel.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Microsecond, "e", func() {})
		eng.Step()
	}
}

// BenchmarkHistogramObserve measures the latency histogram hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := metrics.DefaultLatency()
	rng := sim.NewRNG(1)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.LogNormal(-3, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&1023])
	}
}

// BenchmarkAppServerThroughput measures processor-sharing queue ops on
// one server, submitted through a one-server cluster.
func BenchmarkAppServerThroughput(b *testing.B) {
	eng := sim.NewEngine(1)
	dc := cloud.NewDatacenter(eng, cloud.Config{
		Name: "b", Hosts: 1,
		HostCapacity: cloud.Resources{CPU: 64, Mem: 256, Disk: 4000},
	})
	vm, err := dc.Provision(cloud.InstanceSpec{
		Name: "m", Res: cloud.Resources{CPU: 4, Mem: 8, Disk: 100},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	eng.Step() // boot
	srv := lms.NewAppServer(eng, vm, 1<<20)
	c := lms.NewCluster("b")
	c.Add(srv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(0.001, nil)
		if srv.Active() > 64 {
			for srv.Active() > 32 && eng.Step() {
			}
		}
	}
}

// BenchmarkWorkloadGeneration measures arrival generation for one campus
// day.
func BenchmarkWorkloadGeneration(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Students:          2000,
		ReqPerStudentHour: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += gen.Generate(sim.NewRNG(uint64(i)), 0, time.Hour, func(workload.Arrival) {})
	}
	if n == 0 {
		b.Fatal("no arrivals")
	}
}

// BenchmarkScenarioSteadyHour measures a full request-level simulated
// hour end to end (the unit of cost for every DES experiment).
func BenchmarkScenarioSteadyHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(scenario.Config{
			Seed:              benchSeed,
			Kind:              deploy.Public,
			Students:          500,
			ReqPerStudentHour: 50,
			Duration:          time.Hour,
			Diurnal:           workload.FlatDiurnal(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Served == 0 {
			b.Fatal("no requests served")
		}
	}
}

// BenchmarkFluidSemester measures the flow-level semester integration.
func BenchmarkFluidSemester(b *testing.B) {
	sem := workload.StandardSemester()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scenario.FluidRun(scenario.Config{
			Seed:     benchSeed,
			Kind:     deploy.Hybrid,
			Students: 2000,
			Duration: sem.Duration(),
			Calendar: sem,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cost.Total() <= 0 {
			b.Fatal("no cost")
		}
	}
}
