package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries("vms")
	if ts.name != "vms" {
		t.Fatalf("name = %q", ts.name)
	}
	ts.Add(0, 1)
	ts.Add(time.Minute, 3)
	ts.Add(2*time.Minute, 5)
	if ts.Len() != 3 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if last := ts.points[2]; last.At != 2*time.Minute || last.Value != 5 {
		t.Fatalf("last point = %+v", last)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries("empty")
	if ts.Len() != 0 || len(ts.Points()) != 0 || ts.Downsample(time.Minute).Len() != 0 {
		t.Fatal("empty series must hold no samples")
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Add(time.Minute, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-order Add")
		}
	}()
	ts.Add(time.Second, 2)
}

func TestTimeSeriesDownsample(t *testing.T) {
	ts := NewTimeSeries("dense")
	for i := 0; i < 120; i++ {
		ts.Add(time.Duration(i)*time.Second, float64(i%2)) // 0,1,0,1...
	}
	ds := ts.Downsample(time.Minute)
	if ds.Len() != 2 {
		t.Fatalf("Downsample Len = %d, want 2", ds.Len())
	}
	for _, p := range ds.Points() {
		if math.Abs(p.Value-0.5) > 1e-9 {
			t.Fatalf("bucket mean = %v, want 0.5", p.Value)
		}
	}
}

func TestTimeSeriesGrow(t *testing.T) {
	ts := NewTimeSeries("g")
	ts.Add(0, 1)
	ts.Grow(1000)
	if ts.Len() != 1 || ts.points[0] != (Point{0, 1}) {
		t.Fatalf("Grow changed the samples: %+v", ts.points)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 1; i <= 1000; i++ {
			ts.Add(time.Duration(i)*time.Second, float64(i))
		}
		ts.points = ts.points[:1]
	})
	if allocs != 0 {
		t.Fatalf("1000 Adds after Grow(1000) allocated %v times, want 0", allocs)
	}
}

func TestTimeSeriesPointsIsCopy(t *testing.T) {
	ts := NewTimeSeries("c")
	ts.Add(0, 1)
	pts := ts.Points()
	pts[0].Value = 99
	if ts.Points()[0].Value != 1 {
		t.Fatal("Points exposed internal state")
	}
}

func TestAvailability(t *testing.T) {
	a := NewAvailability()
	a.SetState(10*time.Second, false) // up 10s
	a.SetState(15*time.Second, true)  // down 5s
	a.Finish(20 * time.Second)        // up 5s more
	if got := a.Ratio(); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("Ratio = %v, want 0.75", got)
	}
	if a.downTotal != 5*time.Second {
		t.Fatalf("downtime = %v", a.downTotal)
	}
}

func TestAvailabilityRepeatedStateIgnored(t *testing.T) {
	a := NewAvailability()
	a.SetState(time.Second, true) // already up: no-op
	a.SetState(2*time.Second, false)
	a.SetState(3*time.Second, false) // already down: no-op
	a.Finish(4 * time.Second)
	if got := a.Ratio(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Ratio = %v, want 0.5", got)
	}
}

func TestAvailabilityAllUp(t *testing.T) {
	a := NewAvailability().Finish(time.Hour)
	if a.Ratio() != 1 {
		t.Fatal("untouched tracker must be fully available")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X: demo", "model", "cost", "p95")
	tb.AddRow("public", 123.456, "0.21s")
	tb.AddRow("private", 7890.0, "0.09s")
	tb.AddNote("seed=%d", 42)
	s := tb.String()
	for _, want := range []string{"Table X: demo", "model", "public", "private", "note: seed=42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if tb.Cell(0, 0) != "public" {
		t.Fatalf("Cell(0,0) = %q", tb.Cell(0, 0))
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(`has "quote"`, "x,y")
	csv := tb.CSV()
	if !strings.Contains(csv, `"has ""quote"""`) {
		t.Fatalf("quote escaping wrong:\n%s", csv)
	}
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("comma quoting wrong:\n%s", csv)
	}
}

func TestFmtHelpers(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Fmt(0), "0"},
		{Fmt(5), "5"},
		{Fmt(123.46), "123.5"},
		{Fmt(2.345), "2.35"},
		{Fmt(0.1234), "0.1234"},
		{FmtDollars(12345.678), "$12,345.68"},
		{FmtDollars(0.994), "$0.99"},
		{FmtDollars(-3.5), "-$3.50"},
		{FmtDollars(1234567.0), "$1,234,567.00"},
		{FmtPercent(0.1234), "12.3%"},
		{FmtMillis(0.0125), "12.5ms"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}
