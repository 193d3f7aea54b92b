package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elearncloud/internal/experiments"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-id", "table99"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunList: -list enumerates the registry as one id<TAB>title<TAB>tags
// line per experiment, in registry order, without simulating anything
// (it returns instantly even though a full run takes tens of seconds).
func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, want %d", len(lines), len(all))
	}
	for i, e := range all {
		cols := strings.Split(lines[i], "\t")
		if len(cols) != 3 || cols[0] != e.ID || cols[1] != e.Title ||
			cols[2] != strings.Join(e.Tags, " ") {
			t.Errorf("line %d = %q, want %q<TAB>%q<TAB>%q",
				i, lines[i], e.ID, e.Title, strings.Join(e.Tags, " "))
		}
	}
}

// TestRunListTagFilter: -tag narrows the listing to experiments
// carrying the tag, with the leading @ optional.
func TestRunListTagFilter(t *testing.T) {
	for _, tag := range []string{"@mooc", "mooc"} {
		var buf bytes.Buffer
		if err := run([]string{"-list", "-tag", tag}, &buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		want := 0
		for _, e := range experiments.All() {
			if e.HasTag("@mooc") {
				want++
			}
		}
		if want == 0 || len(lines) != want {
			t.Fatalf("-list -tag %s printed %d lines, want %d", tag, len(lines), want)
		}
		for _, l := range lines {
			if !strings.Contains(l, "@mooc") {
				t.Errorf("-list -tag %s printed %q without the tag", tag, l)
			}
		}
	}
}

// TestRunListUnknownTag: an unregistered tag is a hard error naming
// the known vocabulary, and -tag without -list is rejected.
func TestRunListUnknownTag(t *testing.T) {
	err := run([]string{"-list", "-tag", "bogus"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown tag") {
		t.Fatalf("unknown tag error = %v", err)
	}
	if !strings.Contains(err.Error(), "@mooc") {
		t.Errorf("error %v does not name the known tags", err)
	}
	if err := run([]string{"-tag", "mooc"}, io.Discard); err == nil {
		t.Fatal("-tag without -list accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSingleExperimentText(t *testing.T) {
	// figure7 is analytic and fast.
	if err := run([]string{"-id", "figure7", "-seed", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperimentCSV(t *testing.T) {
	if err := run([]string{"-id", "table7", "-csv"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsSeedZero(t *testing.T) {
	// Seed 0 is the batch runner's derive sentinel; the CLI refuses it.
	if err := run([]string{"-id", "figure7", "-seed", "0"}, io.Discard); err == nil {
		t.Fatal("seed 0 accepted")
	}
}

func TestRunParallelFlag(t *testing.T) {
	// Analytic experiment through an oversized pool: worker count must
	// never affect success (or, per TestRunParallelByteIdentity, output).
	if err := run([]string{"-id", "figure7", "-parallel", "8"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-id", "figure1", "-parallel", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelByteIdentity is the CLI-level determinism gate: the
// exact bytes elbench emits must not depend on -parallel. The -id
// filter keeps the check affordable in CI — table5 exercises a real
// DES batch through the shared pool; the multi-experiment shared-pool
// case is pinned by TestSharedPoolDeterminism in internal/experiments,
// and the full 19-artifact identity was verified manually via cmp.
func TestRunParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a DES experiment three times; skipped in -short mode")
	}
	render := func(parallel string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := run([]string{"-id", "table5", "-parallel", parallel}, &buf); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		return buf.String()
	}
	serial := render("1")
	if serial == "" {
		t.Fatal("empty artifact")
	}
	for _, parallel := range []string{"4", "16"} {
		if got := render(parallel); got != serial {
			t.Errorf("-parallel %s output differs from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				parallel, serial, got)
		}
	}
}

// TestRunFidelityFlagValidation pins the -fidelity flag's conflict
// rules alongside the other mode-exclusivity checks: it needs -id, it
// follows -shards' one-off-artifact policy, and it does not combine
// with -shards, at any fidelity.
func TestRunFidelityFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no id", []string{"-fidelity", "des"}, "need -id"},
		{"with mode", []string{"-id", "table11", "-fidelity", "des", "-update"}, "do not combine with -verify"},
		{"with verify", []string{"-id", "table11", "-fidelity", "auto", "-verify"}, "do not combine with -verify"},
		{"shards+fluid", []string{"-id", "table11", "-fidelity", "fluid", "-shards", "4"}, "do not combine"},
		{"shards+des", []string{"-id", "table11", "-fidelity", "des", "-shards", "4"}, "do not combine"},
		{"no variant", []string{"-id", "table5", "-fidelity", "des"}, "no fidelity variant"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil {
			t.Errorf("%s: %v accepted", c.name, c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunFidelityUnknownValue reaches the variant itself: an
// unrecognized fidelity must fail with the accepted values listed.
func TestRunFidelityUnknownValue(t *testing.T) {
	err := run([]string{"-id", "table11", "-fidelity", "bogus"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown fidelity") {
		t.Fatalf("bogus fidelity: got %v", err)
	}
}

// TestRunFidelityFluid renders the cheap flow-level variant end to end.
func TestRunFidelityFluid(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-id", "table11", "-fidelity", "fluid"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fluid (whole horizon)") {
		t.Fatalf("fluid variant missing its row:\n%s", out)
	}
	if strings.Contains(out, "hybrid (auto fidelity)") {
		t.Fatalf("fluid variant rendered the hybrid row too:\n%s", out)
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile write non-empty
// profiles and leave the rendered artifact byte-identical.
func TestRunProfileFlags(t *testing.T) {
	args := []string{"-id", "table5", "-parallel", "1"}
	var plain, profiled bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &profiled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatalf("output changed under profiling:\n%s\nwant:\n%s", profiled.String(), plain.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

// TestRunProfileUnwritable: a profile path that cannot be created is an
// error naming the flag, and nothing is rendered.
func TestRunProfileUnwritable(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out bytes.Buffer
		err := run([]string{"-id", "figure7", flag, missing}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s %s: err = %v, want an error naming the flag", flag, missing, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", flag, out.String())
		}
	}
}
