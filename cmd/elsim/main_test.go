package main

import (
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
		if err := run(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunTinyScenarioSucceeds(t *testing.T) {
	err := run([]string{
		"-model", "private", "-students", "50", "-hours", "0.25",
		"-access", "campus-lan", "-scaler", "fixed", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunExamAndCDNFlags(t *testing.T) {
	err := run([]string{
		"-model", "public", "-students", "50", "-hours", "0.5",
		"-exam", "-cdn", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorMentionsValue(t *testing.T) {
	err := run([]string{"-model", "mainframe"})
	if err == nil || !strings.Contains(err.Error(), "mainframe") {
		t.Fatalf("err = %v, want mention of bad value", err)
	}
}
