package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad model":         {"-model", "mainframe"},
		"bad access":        {"-access", "carrier-pigeon"},
		"bad scaler":        {"-scaler", "psychic"},
		"bad flag":          {"-nonsense"},
		"zero hours":        {"-hours", "0"},
		"negative hours":    {"-hours", "-3"},
		"NaN hours":         {"-hours", "NaN"},
		"overflowing hours": {"-hours", "1e300"},
	}
	for name, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunTinyScenarioSucceeds(t *testing.T) {
	err := run([]string{
		"-model", "private", "-students", "50", "-hours", "0.25",
		"-access", "campus-lan", "-scaler", "fixed", "-seed", "3",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunScalerNames: -scaler takes every policy by the name its
// ScalerKind prints, and the result line echoes it.
func TestRunScalerNames(t *testing.T) {
	for _, name := range []string{"fixed", "reactive", "scheduled", "predictive", "growth-fit", "oracle"} {
		var out bytes.Buffer
		err := run([]string{"-students", "50", "-hours", "0.25", "-scaler", name, "-seed", "3"}, &out)
		if err != nil {
			t.Fatalf("-scaler %s: %v", name, err)
		}
		if want := "scaler=" + name + " "; !strings.Contains(out.String(), want) {
			t.Errorf("-scaler %s: output lacks %q:\n%s", name, want, out.String())
		}
	}
}

func TestRunExamAndCDNFlags(t *testing.T) {
	err := run([]string{
		"-model", "public", "-students", "50", "-hours", "0.5",
		"-exam", "-cdn", "-seed", "3",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorMentionsValue(t *testing.T) {
	err := run([]string{"-model", "mainframe"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "mainframe") {
		t.Fatalf("err = %v, want mention of bad value", err)
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile write non-empty
// profiles and leave the printed result byte-identical.
func TestRunProfileFlags(t *testing.T) {
	args := []string{"-model", "public", "-students", "50", "-hours", "0.25", "-seed", "3"}
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
// error naming the flag, before anything runs.
func TestRunProfileUnwritable(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out bytes.Buffer
		err := run([]string{"-students", "50", "-hours", "0.25", flag, missing}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s %s: err = %v, want an error naming the flag", flag, missing, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", flag, out.String())
		}
	}
}
