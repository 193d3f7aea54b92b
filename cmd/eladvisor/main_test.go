package main

import (
	"strings"
	"testing"
)

func TestRunUnknownProfile(t *testing.T) {
	if err := run([]string{"-profile", "hogwarts"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSmallProfile(t *testing.T) {
	// Override to a tiny population so the measurement pass stays fast.
	if err := run([]string{"-profile", "rural-school", "-students", "150", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadForecastFlags: each nonsensical flag is an error that
// names the flag, not a panic inside the growth curve or a plan table
// printed for a horizon, SLO, budget or population nobody asked for.
func TestRunRejectsBadForecastFlags(t *testing.T) {
	small := []string{"-from", "10", "-to", "100", "-horizon", "10m"}
	cases := map[string]struct {
		args []string
		flag string
	}{
		"logistic from above half capacity": {[]string{"-forecast", "-from", "5000", "-to", "8000"}, "-from"},
		"zero from":                         {[]string{"-forecast", "-from", "0"}, "-from"},
		"zero timescale":                    {[]string{"-forecast", "-over", "0s"}, "-over"},
		"shrinking linear":                  {[]string{"-forecast", "-growth", "linear", "-from", "9000", "-to", "8000"}, "-from"},
		"negative horizon":                  {[]string{"-forecast", "-from", "10", "-to", "100", "-horizon", "-1h"}, "-horizon"},
		"NaN SLO":                           {append([]string{"-forecast", "-slo", "NaN"}, small...), "-slo"},
		"negative budget":                   {append([]string{"-forecast", "-budget", "-5"}, small...), "-budget"},
		"negative students":                 {[]string{"-profile", "rural-school", "-students", "-3"}, "-students"},
	}
	for name, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: error %q does not name %s", name, err, c.flag)
		}
	}
}
