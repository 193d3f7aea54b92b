// Command elbench regenerates every table and figure of the reproduction
// (see ARCHITECTURE.md's experiment index) and prints them to stdout.
//
// Usage:
//
//	elbench [-seed N] [-id table3] [-csv] [-parallel N]
//	elbench -id table10 -shards 8       # render table10 at one Config.Shards
//	elbench -id table11 -fidelity des   # render table11 at one Config.Fidelity (auto|fluid|des)
//	elbench -list                       # print experiment ids and titles, run nothing
//	elbench -verify [-golden DIR]       # diff artifacts against the golden store
//	elbench -update [-golden DIR]       # regenerate the golden store
//	elbench -id table11 -cpuprofile cpu.prof -memprofile mem.prof
//
// With -id, only the named experiment runs; with -csv the table is
// emitted as CSV instead of aligned text. -shards and -fidelity pin
// the -id experiment's runs to one Config.Shards or one
// Config.Fidelity (experiments.Experiment.At): table10 takes a shard
// count, the knob CI's scale lane turns to pin that a fixed-shard-count
// artifact is byte-identical across -parallel values, and table11 a
// fidelity, where auto is the registry-default hybrid comparison and
// fluid and des force one model. The two do not combine, and both are
// plain-text/CSV only: the golden store pins the registry defaults.
// -parallel is a true global concurrency cap: one work-conserving
// scenario.Pool is shared by the across-experiments loop and every
// experiment's internal scenario batch, so any job from any experiment
// claims a core the moment one frees (default: one worker per CPU).
// Output is byte-identical for every -parallel value: experiments print
// in registry order, each scenario job's randomness is fixed at
// submission by its config and seed, and batch results are collected
// in submission order.
//
// elbench generates and verifies artifacts only; it takes no timings.
// The performance record is bench/elperf (bash bench/run.sh, see
// bench/README.md). -cpuprofile and -memprofile write the CPU and
// allocation profiles of the artifact generation (go tool pprof reads
// them) and leave the output unchanged.
//
// -verify re-renders every artifact and diffs it byte-for-byte against
// testdata/golden/<id>.txt, failing on any drift; -update rewrites the
// store. The golden files are the enforced form of the "output is
// byte-identical" claim: CI verifies them at -parallel 1 and 4.
//
// -list prints one "id<TAB>title" line per registered experiment and
// exits without simulating anything — the enumeration surface for
// humans and for scripts/check-docs.sh's scenario-catalog cross-check
// (docs/SCENARIOS.md must list exactly these ids).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"elearncloud/internal/experiments"
	"elearncloud/internal/profiling"
	"elearncloud/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "elbench:", err)
		os.Exit(1)
	}
}

// artifact is one regenerated experiment.
type artifact struct {
	id   string
	text string // exactly the bytes the plain text mode prints
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("elbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "simulation seed")
	id := fs.String("id", "", "run only this experiment id (e.g. table3, figure5)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	parallel := fs.Int("parallel", scenario.DefaultWorkers(),
		"global worker cap shared across and within experiments (results are identical for any value)")
	verify := fs.Bool("verify", false, "diff regenerated artifacts against the golden store and fail on drift")
	update := fs.Bool("update", false, "rewrite the golden store from regenerated artifacts")
	golden := fs.String("golden", filepath.Join("testdata", "golden"),
		"golden artifact directory used by -verify and -update")
	listMode := fs.Bool("list", false,
		"print registered experiment ids, titles and tags (tab-separated) and exit without running anything")
	tagFilter := fs.String("tag", "",
		"with -list: only print experiments carrying this tag (leading @ optional; unknown tags are an error)")
	shards := fs.Int("shards", 0,
		"with -id: render the experiment at this Config.Shards (table10; the CI scale lane's knob)")
	fidelity := fs.String("fidelity", "",
		"with -id: render the experiment at this Config.Fidelity (table11; auto, fluid or des)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the artifact generation to this file")
	memProf := fs.String("memprofile", "", "write an allocation profile of the artifact generation to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Seed 0 is the batch runner's "derive from (seed, job name)"
	// sentinel: batched jobs would be silently reseeded while direct
	// runs kept raw 0, so refuse the ambiguity outright.
	if *seed == 0 {
		return fmt.Errorf("-seed 0 is reserved (zero means \"derive\" inside scenario batches); pass a nonzero seed")
	}
	modes := 0
	for _, on := range []bool{*verify, *update, *listMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-verify, -update and -list are mutually exclusive")
	}
	if *tagFilter != "" && !*listMode {
		return fmt.Errorf("-tag filters the registry listing and only applies with -list")
	}
	// -shards and -fidelity render a one-off artifact; the golden store
	// pins the registry defaults, so each is plain-text/CSV only and
	// needs a single named experiment.
	if (*shards != 0 || *fidelity != "") && (modes > 0 || *id == "") {
		return fmt.Errorf("-shards and -fidelity need -id and do not combine with -verify, -update or -list")
	}
	fid, ok := map[string]scenario.Fidelity{
		"": 0, "des": scenario.FidelityDES, "fluid": scenario.FidelityFluid, "auto": scenario.FidelityAuto,
	}[*fidelity]
	if !ok {
		return fmt.Errorf("unknown fidelity %q (want auto, fluid or des)", *fidelity)
	}
	if *listMode {
		// Pure registry enumeration: nothing is simulated, so the
		// generation flags have nothing to act on; reject them rather
		// than silently ignoring an explicit setting.
		var gen []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "id", "parallel", "golden", "csv", "cpuprofile", "memprofile":
				gen = append(gen, "-"+f.Name)
			}
		})
		if len(gen) > 0 {
			return fmt.Errorf("%s: artifact-generation flags do not apply to -list, which only reads the registry", strings.Join(gen, ", "))
		}
		if *tagFilter != "" {
			want := *tagFilter
			if !strings.HasPrefix(want, "@") {
				want = "@" + want
			}
			known := false
			for _, t := range experiments.KnownTags() {
				if t == want {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("unknown tag %q (known: %s)", *tagFilter, strings.Join(experiments.KnownTags(), " "))
			}
		}
		for _, e := range experiments.All() {
			if *tagFilter != "" && !e.HasTag(*tagFilter) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s\t%s\t%s\n", e.ID, e.Title, strings.Join(e.Tags, " ")); err != nil {
				return err
			}
		}
		return nil
	}
	if *csv && modes > 0 {
		return fmt.Errorf("-csv applies only to plain text output (the golden store is text-mode)")
	}
	if (*verify || *update) && *seed != 1 {
		return fmt.Errorf("the golden store is pinned at seed 1; -verify/-update with -seed %d would always drift", *seed)
	}
	var list []experiments.Experiment
	if *id != "" {
		e, err := experiments.Find(*id)
		if err != nil {
			return err
		}
		if e, err = e.At(*shards, fid); err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	} else {
		list = experiments.All()
	}

	// Regenerate every artifact on one shared pool, then emit in
	// registry order — the parallel output must be indistinguishable
	// from the serial one. The same pool is threaded into every
	// experiment's internal batch, so the -parallel tokens span both
	// nesting levels: when the across-experiments loop drains (e.g.
	// through figure3's 32-job tail), its freed cores go straight to
	// whichever inner batches still hold work.
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	pool := scenario.NewPool(*parallel)
	arts := make([]artifact, len(list))
	err = pool.ForEach(len(list), func(i int) error {
		tbl, err := list[i].Run(*seed, pool)
		if err != nil {
			return fmt.Errorf("%s: %w", list[i].ID, err)
		}
		text := tbl.String() + "\n"
		if *csv {
			text = tbl.CSV()
		}
		arts[i] = artifact{id: list[i].ID, text: text}
		return nil
	})
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	switch {
	case *verify:
		// A full run (no -id filter) also polices the store itself:
		// goldens with no matching experiment are drift too.
		return verifyGolden(w, arts, *golden, *id == "")
	case *update:
		return updateGolden(w, arts, *golden, *id == "")
	}
	for _, a := range arts {
		if _, err := io.WriteString(w, a.text); err != nil {
			return err
		}
	}
	return nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// orphanedGoldens lists .txt files in the store with no matching
// artifact — stale leftovers after an experiment rename or removal.
func orphanedGoldens(dir string, arts []artifact) ([]string, error) {
	ids := make(map[string]bool, len(arts))
	for _, a := range arts {
		ids[a.id] = true
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		// No store at all: every artifact is already reported as a
		// missing golden file; don't let this error eat that report.
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var orphans []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".txt" {
			continue
		}
		if !ids[name[:len(name)-len(".txt")]] {
			orphans = append(orphans, name)
		}
	}
	return orphans, nil
}

// verifyGolden diffs every regenerated artifact against its committed
// golden copy and fails on the first byte of drift, reporting all
// drifted artifacts at once. On a full run it also rejects orphaned
// golden files, so a renamed or deleted experiment cannot leave a
// stale .txt rotting in the store.
func verifyGolden(w io.Writer, arts []artifact, dir string, full bool) error {
	var bad []string
	for _, a := range arts {
		path := filepath.Join(dir, a.id+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: missing golden file %s (run elbench -update)", a.id, path))
			continue
		}
		if string(want) != a.text {
			bad = append(bad, fmt.Sprintf("%s: differs from %s (got %d bytes sha %.12s, want %d bytes sha %.12s)",
				a.id, path, len(a.text), sha256Hex(a.text), len(want), sha256Hex(string(want))))
		}
	}
	if full {
		orphans, err := orphanedGoldens(dir, arts)
		if err != nil {
			return err
		}
		for _, name := range orphans {
			bad = append(bad, fmt.Sprintf("%s: orphaned golden file with no matching experiment (stale after a rename? run elbench -update)",
				filepath.Join(dir, name)))
		}
	}
	if len(bad) > 0 {
		msg := fmt.Sprintf("golden verify failed for %d of %d artifact(s):", len(bad), len(arts))
		for _, b := range bad {
			msg += "\n  " + b
		}
		return fmt.Errorf("%s", msg)
	}
	_, err := fmt.Fprintf(w, "golden: %d/%d artifacts match %s\n", len(arts), len(arts), dir)
	return err
}

// updateGolden rewrites the golden store from the regenerated
// artifacts, deleting orphans on a full run. Commit the result only
// when an artifact change is intentional — the diff is the review
// surface.
func updateGolden(w io.Writer, arts []artifact, dir string, full bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range arts {
		if err := os.WriteFile(filepath.Join(dir, a.id+".txt"), []byte(a.text), 0o644); err != nil {
			return err
		}
	}
	removed := 0
	if full {
		orphans, err := orphanedGoldens(dir, arts)
		if err != nil {
			return err
		}
		for _, name := range orphans {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
			removed++
		}
	}
	_, err := fmt.Fprintf(w, "golden: wrote %d artifact(s) to %s (%d orphan(s) removed)\n", len(arts), dir, removed)
	return err
}
