// Command elperf is the simulator's performance benchmark. It runs one
// named workload serially in one process: a closed loop with one caller
// and one simulation at a time, hybrid windows on a one-worker pool,
// GOMAXPROCS 1. It times each call into the scenario and workload layers
// from outside, checks every result's ledger and the passes' agreement,
// and prints one JSON object with every metric by name, value and unit
// as the last line of standard output.
//
// Usage, from the repository root (bench/run.sh builds the binary):
//
//	bash bench/run.sh --workload ramp-100k --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare runs/parent runs/change
//
// --trace 0 prints the end-to-end metrics of untraced passes. --trace 1
// prints the per-layer metrics: counters from the same untraced passes,
// then one extra pass under the CPU profiler, attributed by layer.
// bench/README.md describes the workloads, the metrics and how to
// compare two commits.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"elearncloud/internal/scenario"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("elperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ramp-100k, week-outage, crowd-burst or mooc-hybrid")
	seed := fs.Uint64("seed", 1, "seed every run's config is derived from")
	seconds := fs.Int("seconds", defaultSeconds, "how long the timed passes run; a run makes at least one pass")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics and runs a profiled pass")
	setupOnly := fs.Bool("setup-only", false, "do only the set-up that precedes the first pass, then exit (set-up timing children)")
	compare := fs.Bool("compare", false, "compare two directories of saved runs: -compare <parent-dir> <change-dir>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "elperf: -compare takes <parent-dir> <change-dir>")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "elperf: want --workload <name> --seed <n> --seconds <s >= 1> --trace <0|1>")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "elperf:", err)
		return 2
	}
	if *setupOnly {
		if _, err := prepare(w, *seed, stderr); err != nil {
			fmt.Fprintln(stderr, "elperf:", err)
			return 1
		}
		return 0
	}
	if err := measure(w, *seed, float64(*seconds), *trace == 1, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "elperf:", err)
		return 1
	}
	return 0
}

// bench is one prepared workload.
type bench struct {
	jobs  []job
	plans []*scenario.FidelityPlan
	pool  *scenario.Pool
	log   io.Writer
}

// prepare builds the workload's configs for seed and plans each one,
// which validates it and builds its generator.
func prepare(w *workloadDef, seed uint64, log io.Writer) (*bench, error) {
	b := &bench{jobs: w.jobs(seed), pool: scenario.NewPool(1), log: log}
	for _, j := range b.jobs {
		plan, err := scenario.PlanFidelity(j.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		if j.hybrid && len(plan.Windows) == 0 {
			return nil, fmt.Errorf("%s: hybrid run planned no DES windows", j.name)
		}
		b.plans = append(b.plans, plan)
	}
	return b, nil
}

// totals sums a pass's simulated results. A speed-only change leaves
// every field identical.
type totals struct {
	events, arrivals, served, rejected, offline uint64
	peakServers                                 int
	vmHours, desHours, fluidHours               float64
}

func (t *totals) add(res *scenario.Result, hybrid bool) {
	t.events += res.Events
	t.arrivals += res.Arrivals
	t.served += res.Served
	t.rejected += res.Rejected
	t.offline += res.Offline
	t.peakServers += res.PeakServers
	t.vmHours += res.VMHoursPublic + res.VMHoursPrivate
	if hybrid {
		t.desHours += res.DESSimHours
		t.fluidHours += res.FluidSimHours
	} else {
		t.desHours += res.Duration.Hours()
	}
}

// passStats is what one pass over the workload's runs measured.
type passStats struct {
	wall, cpu float64
	// runSeconds sums the time spent inside scenario.Run and
	// scenario.HybridRun calls.
	runSeconds float64
	runs       int
	failed     int
	digest     string
	sim        totals
	rt         runtimeCounters
	// peakLive is the pass's peak live heap in bytes; see liveHeap.
	peakLive uint64
}

// pass runs every job once, timing each call from outside and checking
// each result's ledger.
func (b *bench) pass() passStats {
	var p passStats
	h := sha256.New()
	rt0, cpu0, start := readCounters(), cpuSeconds(), time.Now()
	for _, j := range b.jobs {
		callStart := time.Now()
		res, err := j.run(b.pool)
		p.runSeconds += time.Since(callStart).Seconds()
		p.runs++
		if err == nil {
			err = checkLedger(res, j.hybrid)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(b.log, "elperf: %s: %v\n", j.name, err)
			fmt.Fprintf(h, "%s failed\n", j.name)
			continue
		}
		writeDigest(h, j.name, res)
		p.sim.add(res, j.hybrid)
	}
	p.wall = time.Since(start).Seconds()
	p.cpu = cpuSeconds() - cpu0
	p.rt = readCounters().sub(rt0)
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// summary is everything one invocation measured.
type summary struct {
	setupSeconds float64
	// passes are the untraced timed passes.
	passes []passStats
	replay replayStats
	// profile is the traced pass, for --trace 1 only.
	profile *profileStats
}

// measure runs timed passes while the next one is expected to end
// within seconds, at least one, then for a traced run the replay and
// the profiled pass, and prints the record line and the result line.
func measure(w *workloadDef, seed uint64, seconds float64, traced bool, stdout, stderr io.Writer) error {
	setup, err := measureSetup(w.name, seed)
	if err != nil {
		return err
	}
	b, err := prepare(w, seed, stderr)
	if err != nil {
		return err
	}
	s := &summary{setupSeconds: setup}
	// One P keeps the mutator and the GC on one CPU. With a second P,
	// every GC phase change waits for a second vCPU that a shared host
	// may have descheduled, which measures the host, not the code.
	runtime.GOMAXPROCS(1)
	heap := newLiveHeap()
	var walls []float64
	for start := time.Now(); len(s.passes) == 0 || time.Since(start).Seconds()+median(walls) <= seconds; {
		// Each pass starts from a collected heap, so the previous pass's
		// garbage does not shift this pass's GC cycles.
		runtime.GC()
		heap.reset()
		p := b.pass()
		p.peakLive = heap.peak()
		s.passes = append(s.passes, p)
		walls = append(walls, p.wall)
	}

	defs, values := endToEnd, endToEndValues(s)
	if traced {
		if s.replay, err = b.replay(); err != nil {
			return err
		}
		runtime.GC()
		if s.profile, err = b.profiledPass(); err != nil {
			return err
		}
		defs, values = perLayer, perLayerValues(s)
	}

	rec, res := s.outcome()
	rec.Workload, rec.Seed, rec.Traced = w.name, seed, traced
	if res.Metrics, err = collect(defs, values); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("runs failed their checks; see the messages above")
	}
	return nil
}

// record is the line before the result: what ran, on which host, and
// the digest a speed-only change must keep.
type record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Passes     int     `json:"passes"`
	Runs       int     `json:"runs"`
	RunsFailed int     `json:"runs_failed"`
	SimDigest  string  `json:"sim_digest"`
	WallMax    float64 `json:"wall_s_max"`
	Host       host    `json:"host"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome counts the runs and checks that every pass produced the first
// pass's digest. A pass that disagrees counts all its runs as failed.
func (s *summary) outcome() (record, result) {
	rec := record{
		Passes: len(s.passes),
		Host: host{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			GOGC:       os.Getenv("GOGC"),
		},
	}
	all := s.passes
	if s.profile != nil {
		all = append(all[:len(all):len(all)], s.profile.pass)
	}
	for _, p := range all {
		rec.Runs += p.runs
		if p.digest != s.passes[0].digest {
			rec.RunsFailed += p.runs
		} else {
			rec.RunsFailed += p.failed
		}
	}
	for _, p := range s.passes {
		rec.WallMax = max(rec.WallMax, p.wall)
	}
	rec.SimDigest = s.passes[0].digest
	return rec, result{Correct: rec.RunsFailed == 0, Attempted: rec.Runs, Failed: rec.RunsFailed}
}
