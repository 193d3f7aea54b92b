package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"

	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// layers are the buckets the profiled pass's samples are charged to,
// in print order. "other" takes samples with no project frame that are
// not background GC, and project packages outside this list.
var layers = []string{
	"sim.engine", "sim.rng", "lms", "network", "workload", "deploy",
	"scenario", "metrics", "scale", "cloud", "runtime.gc_bg", "other",
}

// bootGrace mirrors the scenario runner's delay before the first
// arrival, so the replay draws the same arrival stream the runs draw.
const bootGrace = 3 * time.Minute

// replayStats is the workload layer measured alone.
type replayStats struct {
	seconds                      float64
	arrivals, proposed, accepted uint64
}

// replay builds each run's generator and draws its arrival stream on
// the spans the run simulates at request level, with the run's RNG
// streams: the whole horizon for a direct run, each planned DES window
// for a hybrid one.
func (b *bench) replay() (replayStats, error) {
	var r replayStats
	start := time.Now()
	for i, j := range b.jobs {
		cfg := j.cfg
		gen, err := workload.NewGenerator(workload.Config{
			Students:          cfg.Students,
			Growth:            cfg.Growth,
			ReqPerStudentHour: cfg.ReqPerStudentHour,
			Diurnal:           cfg.Diurnal,
			Calendar:          cfg.Calendar,
			Crowds:            cfg.Crowds,
			Storms:            cfg.Storms,
			Joins:             cfg.Joins,
		})
		if err != nil {
			return r, fmt.Errorf("%s: replay: %w", j.name, err)
		}
		type span struct {
			seed       uint64
			start, end time.Duration
		}
		spans := []span{{cfg.Seed, bootGrace, cfg.Duration}}
		if j.hybrid {
			spans = spans[:0]
			for k, w := range b.plans[i].Windows {
				spans = append(spans, span{scenario.SeedFor(cfg.Seed, fmt.Sprintf("hybrid/%d", k)), w.Start + bootGrace, w.End})
			}
		}
		for _, sp := range spans {
			stream := gen.Stream(sim.NewRNG(sp.seed).Stream("workload"), sp.start)
			for {
				if _, ok := stream.Next(sp.end); !ok {
					break
				}
				r.arrivals++
			}
			proposed, accepted := stream.Thinning()
			r.proposed += proposed
			r.accepted += accepted
		}
	}
	r.seconds = time.Since(start).Seconds()
	return r, nil
}

// profileStats is the traced pass and its attribution.
type profileStats struct {
	pass passStats
	frac map[string]float64
}

// profiledPass runs one more pass under the CPU profiler and charges its
// samples to layers through `go tool pprof -traces`.
func (b *bench) profiledPass() (*profileStats, error) {
	f, err := os.CreateTemp("", "elperf-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	p := b.pass()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", f.Name())
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w\n%s", err, errOut.String())
	}
	frac, err := attribute(&out)
	if err != nil {
		return nil, err
	}
	return &profileStats{pass: p, frac: frac}, nil
}

// attribute reads `pprof -traces` output and returns each layer's share
// of the sampled time. Each sample goes to its innermost frame in an
// elearncloud/internal package; sim splits into its random-number side
// (RNG, distributions, the NHPP sampler) and the engine. A stack with no
// project frame goes to runtime.gc_bg when it is a background GC worker,
// and to other otherwise.
func attribute(r io.Reader) (map[string]float64, error) {
	weight := map[string]float64{}
	var total float64
	var value float64
	var frames []string
	flush := func() {
		if frames != nil {
			weight[layerOf(frames)] += value
			total += value
		}
		frames = nil
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		// A sample starts with its value and leaf frame; its callers
		// follow one to a line. Lines before the first sample are the
		// header.
		fn := strings.TrimSpace(line)
		head, leaf, _ := strings.Cut(fn, " ")
		if d, err := time.ParseDuration(head); err == nil {
			flush()
			value, frames, fn = d.Seconds(), []string{}, strings.TrimSpace(leaf)
		}
		if frames != nil && fn != "" {
			frames = append(frames, strings.TrimSuffix(fn, " (inline)"))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	frac := make(map[string]float64, len(layers))
	for l, w := range weight {
		frac[l] = w / total
	}
	return frac, nil
}

const projectPrefix = "elearncloud/internal/"

// rngNames are the sim identifiers on the random-number side: the
// generator, the distributions and the NHPP arrival sampler.
var rngNames = map[string]bool{
	"RNG": true, "NewRNG": true, "SeedFor": true, "fnv64": true,
	"ZipfGen": true, "NewZipfGen": true,
	"NHPP": true, "NewNHPP": true, "NewNHPPEnvelope": true, "ConstantEnvelope": true,
	"constDist": true, "uniformDist": true, "expDist": true, "lognormDist": true, "paretoDist": true,
	"Constant": true, "Uniform": true, "Exponential": true, "LogNormal": true, "Pareto": true,
}

// layerOf charges one stack, leaf first, to a layer.
func layerOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, projectPrefix)
		if !ok {
			continue
		}
		pkg, ident, _ := strings.Cut(rest, ".")
		if pkg == "sim" {
			if rngNames[firstIdent(ident)] {
				return "sim.rng"
			}
			return "sim.engine"
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, fn := range frames {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime.gc_bg"
		}
	}
	return "other"
}

// firstIdent returns the type or function name that starts a symbol's
// remainder: "RNG" for "(*RNG).LogNormal", "lognormDist" for
// "lognormDist.Sample", "ConstantEnvelope" for "ConstantEnvelope.func1".
func firstIdent(s string) string {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "("), "*")
	if i := strings.IndexAny(s, ").["); i >= 0 {
		s = s[:i]
	}
	return s
}
