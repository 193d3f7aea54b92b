package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one printed metric and its unit. BENCHMARK.json
// declares the same names and units, with each metric's direction and
// bound; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics --trace 0 prints: what a user of the
// simulator waits for and pays in memory.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_live_mb", "MB"},
}

// perLayer are the metrics --trace 1 prints. Counts and times are per
// pass; prof.* are shares of the profiled pass's CPU samples.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_arrival", "1"},
	{"sim.events_per_s", "1/s"},
	{"runtime.mallocs_per_event", "1"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"network.offline", "count"},
	{"workload.replay_s", "s"},
	{"workload.arrivals", "count"},
	{"workload.accept_ratio", "1"},
	{"scenario.run_s", "s"},
	{"scenario.des_h", "h"},
	{"scenario.fluid_h", "h"},
	{"lms.served", "count"},
	{"lms.rejected", "count"},
	{"scale.peak_servers", "count"},
	{"cloud.vm_hours", "h"},
	{"trace.overhead_frac", "1"},
}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, metricDef{"prof." + l + "_frac", "1"})
	}
}

// endToEndValues computes the --trace 0 metrics.
func endToEndValues(s *summary) map[string]float64 {
	return map[string]float64{
		"setup_s":      s.setupSeconds,
		"wall_s":       medianOf(s.passes, func(p passStats) float64 { return p.wall }),
		"cpu_s":        medianOf(s.passes, func(p passStats) float64 { return p.cpu }),
		"peak_live_mb": medianOf(s.passes, func(p passStats) float64 { return float64(p.peakLive) }) / 1e6,
	}
}

// perLayerValues computes the --trace 1 metrics. The simulated totals
// are the first pass's; every pass repeats them when the run is correct.
func perLayerValues(s *summary) map[string]float64 {
	var sim totals
	if len(s.passes) > 0 {
		sim = s.passes[0].sim
	}
	events := float64(sim.events)
	wall := medianOf(s.passes, func(p passStats) float64 { return p.wall })
	allocBytes := medianOf(s.passes, func(p passStats) float64 { return float64(p.rt.allocBytes) })
	v := map[string]float64{
		"sim.events":                    events,
		"sim.events_per_arrival":        ratio(events, float64(sim.arrivals)),
		"sim.events_per_s":              ratio(events, wall),
		"runtime.mallocs_per_event":     ratio(medianOf(s.passes, func(p passStats) float64 { return float64(p.rt.mallocs) }), events),
		"runtime.alloc_bytes_per_event": ratio(allocBytes, events),
		"runtime.alloc_mb":              allocBytes / 1e6,
		"runtime.gc_cycles":             medianOf(s.passes, func(p passStats) float64 { return float64(p.rt.gcCycles) }),
		"runtime.gc_cpu_s":              medianOf(s.passes, func(p passStats) float64 { return p.rt.gcCPU }),
		"network.offline":               float64(sim.offline),
		"workload.replay_s":             s.replay.seconds,
		"workload.arrivals":             float64(s.replay.arrivals),
		"workload.accept_ratio":         ratio(float64(s.replay.accepted), float64(s.replay.proposed)),
		"scenario.run_s":                medianOf(s.passes, func(p passStats) float64 { return p.runSeconds }),
		"scenario.des_h":                sim.desHours,
		"scenario.fluid_h":              sim.fluidHours,
		"lms.served":                    float64(sim.served),
		"lms.rejected":                  float64(sim.rejected),
		"scale.peak_servers":            float64(sim.peakServers),
		"cloud.vm_hours":                sim.vmHours,
	}
	var prof profileStats
	if s.profile != nil {
		prof = *s.profile
	}
	v["trace.overhead_frac"] = ratio(prof.pass.wall, wall) - 1
	for _, l := range layers {
		v["prof."+l+"_frac"] = prof.frac[l]
	}
	return v
}

// collect pairs each declared metric with its value. It fails when a
// value is missing, undeclared or not a finite number, so the benchmark
// never prints a metric BENCHMARK.json does not declare.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(out) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

func medianOf(passes []passStats, f func(passStats) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
