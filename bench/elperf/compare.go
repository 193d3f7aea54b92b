package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// savedRun is one invocation's saved standard output.
type savedRun struct {
	rec record
	res result
}

// readSavedRun parses the record line and the result line that end a
// --trace 0 invocation's output.
func readSavedRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, fmt.Errorf("%s: %w", path, err)
	}
	var r savedRun
	if len(lines) < 2 {
		return r, fmt.Errorf("%s: want a record line and a result line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r.rec); err != nil {
		return r, fmt.Errorf("%s: record line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		return r, fmt.Errorf("%s: result line: %w", path, err)
	}
	if r.rec.Traced {
		return r, fmt.Errorf("%s: a --trace 1 run has no end-to-end metrics", path)
	}
	return r, nil
}

// pairsByWorkload reads the files present in both directories. A file
// name is one pair: the parent's and the change's run of the same
// workload and seed, made one after the other.
func pairsByWorkload(parentDir, changeDir string) (map[string][][2]savedRun, error) {
	entries, err := os.ReadDir(parentDir)
	if err != nil {
		return nil, err
	}
	out := map[string][][2]savedRun{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		changePath := filepath.Join(changeDir, e.Name())
		if _, err := os.Stat(changePath); err != nil {
			continue
		}
		p, err := readSavedRun(filepath.Join(parentDir, e.Name()))
		if err != nil {
			return nil, err
		}
		c, err := readSavedRun(changePath)
		if err != nil {
			return nil, err
		}
		if p.rec.Workload != c.rec.Workload || p.rec.Seed != c.rec.Seed {
			return nil, fmt.Errorf("%s: parent ran %s seed %d, change ran %s seed %d",
				e.Name(), p.rec.Workload, p.rec.Seed, c.rec.Workload, c.rec.Seed)
		}
		out[p.rec.Workload] = append(out[p.rec.Workload], [2]savedRun{p, c})
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares paired values of a lower-is-better metric. The change
// improved when it wins at least nine pairs in ten, ties counting for
// neither, and the medians differ by more than the parent's quartile
// spread. It regressed when its median is worse than the parent's by
// more than bound, a share of the parent's median. Otherwise it is
// unchanged, unless the parent's spread is wider than the bound and not
// every change run beats every parent run: then it is unresolved.
func judge(parent, change []float64, bound float64) (verdict string, wins int) {
	for i := range parent {
		if change[i] < parent[i] {
			wins++
		}
	}
	medP, medC := median(parent), median(change)
	q1, q3 := quartiles(parent)
	switch {
	case wins*10 >= 9*len(parent) && medP-medC > q3-q1:
		return improved, wins
	case medC > medP*(1+bound):
		return regressed, wins
	case q3-q1 > bound*medP && !(maxOf(change) < minOf(parent)):
		return unresolved, wins
	default:
		return unchanged, wins
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// runCompare prints a verdict for each workload and end-to-end metric,
// and flags digest differences and added failures. It exits 1 when any
// metric regressed or any flag is raised.
func runCompare(parentDir, changeDir string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "elperf:", err)
		return 2
	}
	pairs, err := pairsByWorkload(parentDir, changeDir)
	if err != nil {
		fmt.Fprintln(stderr, "elperf:", err)
		return 2
	}
	bad := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	var flags []string
	for _, w := range bf.Workloads {
		ps := pairs[w.Name]
		if len(ps) < minPairs {
			fmt.Fprintf(stderr, "elperf: %s has %d pairs, want at least %d\n", w.Name, len(ps), minPairs)
			return 2
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i][0].rec.Seed < ps[j][0].rec.Seed })
		digests, failedP, failedC := 0, 0, 0
		for _, p := range ps {
			if p[0].rec.SimDigest != p[1].rec.SimDigest {
				digests++
			}
			failedP += p[0].res.Failed
			failedC += p[1].res.Failed
		}
		if digests > 0 {
			flags = append(flags, fmt.Sprintf("%s: sim_digest differs in %d of %d pairs", w.Name, digests, len(ps)))
		}
		if failedC > failedP {
			flags = append(flags, fmt.Sprintf("%s: failed runs rose from %d to %d", w.Name, failedP, failedC))
		}
		for _, m := range bf.EndToEnd {
			parent, change := make([]float64, len(ps)), make([]float64, len(ps))
			for i, p := range ps {
				pv, ok1 := p[0].res.Metrics[m.Name]
				cv, ok2 := p[1].res.Metrics[m.Name]
				if !ok1 || !ok2 {
					fmt.Fprintf(stderr, "elperf: %s: a run lacks metric %s\n", w.Name, m.Name)
					return 2
				}
				parent[i], change[i] = pv.Value, cv.Value
			}
			v, wins := judge(parent, change, m.Bound)
			bad = bad || v == regressed
			pq1, pq3 := quartiles(parent)
			cq1, cq3 := quartiles(change)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				w.Name, m.Name, median(parent), pq1, pq3, median(change), cq1, cq3, wins, len(ps), v)
		}
	}
	tw.Flush()
	for _, f := range flags {
		fmt.Fprintln(stdout, "FLAG", f)
	}
	if bad || len(flags) > 0 {
		return 1
	}
	return 0
}
