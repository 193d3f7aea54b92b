package workload

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

func TestDiurnalInterpolation(t *testing.T) {
	p := CampusDiurnal()
	// Exactly at hour anchors.
	if got := p.At(10 * time.Hour); math.Abs(got-1.9) > 1e-12 {
		t.Fatalf("At(10h) = %v, want 1.9", got)
	}
	// Midway between hours interpolates.
	mid := p.At(10*time.Hour + 30*time.Minute)
	want := (1.9 + 1.8) / 2
	if math.Abs(mid-want) > 1e-12 {
		t.Fatalf("At(10:30) = %v, want %v", mid, want)
	}
	// Wraps past midnight.
	if got := p.At(25 * time.Hour); math.Abs(got-p.At(time.Hour)) > 1e-12 {
		t.Fatalf("wrap failed: %v vs %v", got, p.At(time.Hour))
	}
}

func TestDiurnalShapeSane(t *testing.T) {
	p := CampusDiurnal()
	if p.At(3*time.Hour) >= p.At(20*time.Hour) {
		t.Fatal("3am should be quieter than 8pm")
	}
	if math.Abs(p.Mean()-1.0) > 0.15 {
		t.Fatalf("diurnal mean = %v, want ~1.0", p.Mean())
	}
	if p.Peak() != 2.0 {
		t.Fatalf("peak = %v", p.Peak())
	}
}

func TestDiurnalNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var h [24]float64
	h[5] = -1
	NewDiurnalProfile(h)
}

func TestStandardSemesterStructure(t *testing.T) {
	c := StandardSemester()
	if c.Len() != 18 {
		t.Fatalf("semester weeks = %d, want 18", c.Len())
	}
	week := 7 * 24 * time.Hour
	if c.WeekAt(0).Kind != Teaching {
		t.Fatal("week 0 should be orientation teaching")
	}
	if c.WeekAt(7*week).Kind != Exams {
		t.Fatalf("week 7 should be midterms, got %v", c.WeekAt(7*week).Kind)
	}
	if c.WeekAt(16*week).Kind != Exams {
		t.Fatal("week 16 should be finals")
	}
	if c.WeekAt(17*week).Kind != Vacation {
		t.Fatal("week 17 should be vacation")
	}
	// Past the end, the last week repeats.
	if c.WeekAt(40*week).Kind != Vacation {
		t.Fatal("past-end week should repeat vacation")
	}
	if c.PeakMult() != 2.4 {
		t.Fatalf("PeakMult = %v", c.PeakMult())
	}
	if c.Duration() != 18*week {
		t.Fatalf("Duration = %v", c.Duration())
	}
}

func TestCalendarPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { NewCalendar(nil) },
		"negative": func() { NewCalendar([]Week{{Kind: Teaching, Mult: -1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWeekKindString(t *testing.T) {
	if Teaching.String() != "teaching" || Exams.String() != "exams" ||
		Vacation.String() != "vacation" || WeekKind(9).String() != "WeekKind(9)" {
		t.Fatal("week kind strings wrong")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Students: 0, ReqPerStudentHour: 60}); err == nil {
		t.Fatal("zero students accepted")
	}
	if _, err := NewGenerator(Config{Students: 10, ReqPerStudentHour: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewGenerator(Config{
		Students: 10, ReqPerStudentHour: 60,
		Crowds: []FlashCrowd{{Start: time.Hour, End: time.Minute, Mult: 2}},
	}); err == nil {
		t.Fatal("inverted crowd window accepted")
	}
	if _, err := NewGenerator(Config{
		Students: 10, ReqPerStudentHour: 60,
		Crowds: []FlashCrowd{{Start: 0, End: time.Hour, Mult: 0}},
	}); err == nil {
		t.Fatal("zero crowd multiplier accepted")
	}
}

func TestGeneratorRateComposition(t *testing.T) {
	g, err := NewGenerator(Config{
		Students:          3600,
		ReqPerStudentHour: 1, // base aggregate = 1 req/s
		Diurnal:           FlatDiurnal(),
		Calendar:          NewCalendar([]Week{{Kind: Teaching, Mult: 2}}),
		Crowds:            []FlashCrowd{{Start: time.Hour, End: 2 * time.Hour, Mult: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Rate(30 * time.Minute); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Rate outside crowd = %v, want 2", got)
	}
	if got := g.Rate(90 * time.Minute); math.Abs(got-10.0) > 1e-12 {
		t.Fatalf("Rate inside crowd = %v, want 10", got)
	}
	if got := g.MaxRate(); math.Abs(got-10.0) > 1e-12 {
		t.Fatalf("MaxRate = %v, want 10", got)
	}
}

func TestGeneratorArrivalVolume(t *testing.T) {
	g, err := NewGenerator(Config{
		Students:          1800,
		ReqPerStudentHour: 2, // aggregate 1 req/s at flat diurnal
		Diurnal:           FlatDiurnal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(71)
	n := g.Generate(rng, 0, 10000*time.Second, func(Arrival) {})
	if math.Abs(float64(n)-10000) > 400 {
		t.Fatalf("arrivals = %d, want ~10000", n)
	}
}

func TestGeneratorMixSwitchesDuringExams(t *testing.T) {
	g, err := NewGenerator(Config{
		Students:          100,
		ReqPerStudentHour: 60,
		Calendar: NewCalendar([]Week{
			{Kind: Teaching, Mult: 1},
			{Kind: Exams, Mult: 2},
		}),
		Crowds: []FlashCrowd{{Start: time.Hour, End: 2 * time.Hour, Mult: 3, ExamTraffic: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := lms.DefaultCatalog()
	teach := g.MixAt(30 * time.Minute)
	exam := g.MixAt(8 * 24 * time.Hour) // week 1 = exams
	crowd := g.MixAt(90 * time.Minute)
	if teach.SensitiveShare(cat) >= exam.SensitiveShare(cat) {
		t.Fatal("exam week mix should be more sensitive than teaching")
	}
	if crowd.SensitiveShare(cat) != exam.SensitiveShare(cat) {
		t.Fatal("exam crowd should use the exam mix")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	gen := func() []Arrival {
		g, err := NewGenerator(Config{Students: 50, ReqPerStudentHour: 30})
		if err != nil {
			t.Fatal(err)
		}
		var out []Arrival
		g.Generate(sim.NewRNG(123), 0, 2*time.Hour, func(a Arrival) { out = append(out, a) })
		return out
	}
	a, b := gen(), gen()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFlashCrowdActive(t *testing.T) {
	c := FlashCrowd{Start: time.Hour, End: 2 * time.Hour, Mult: 10}
	if c.Active(30*time.Minute) || c.Active(2*time.Hour) {
		t.Fatal("window edges wrong")
	}
	if !c.Active(time.Hour) || !c.Active(90*time.Minute) {
		t.Fatal("inside window not active")
	}
}
