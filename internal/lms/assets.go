package lms

import "fmt"

// AssetKind classifies the digital assets the paper names: "tests, exam
// questions, results" plus the bulk course content around them.
type AssetKind int

// Asset kinds.
const (
	CourseContent AssetKind = iota + 1 // slides, video, readings
	ExamQuestions                      // sensitive before the exam
	Grades                             // sensitive always
	Submissions                        // student work
)

// String returns the kind name.
func (k AssetKind) String() string {
	switch k {
	case CourseContent:
		return "course-content"
	case ExamQuestions:
		return "exam-questions"
	case Grades:
		return "grades"
	case Submissions:
		return "submissions"
	default:
		return fmt.Sprintf("AssetKind(%d)", int(k))
	}
}

// Sensitive reports whether assets of this kind are confidential.
func (k AssetKind) Sensitive() bool { return k == ExamQuestions || k == Grades }

// Location says which side of a deployment holds an asset.
type Location int

// Asset locations.
const (
	OnPublic  Location = iota + 1 // public-cloud storage
	OnPrivate                     // on-premise / private-cloud storage
)

// String returns the location name.
func (l Location) String() string {
	switch l {
	case OnPublic:
		return "public"
	case OnPrivate:
		return "private"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Placement says where a deployment keeps its assets: every sensitive
// kind at Sensitive, every other kind at Other.
type Placement struct {
	Sensitive, Other Location
}

// AllAt places every asset kind at loc.
func AllAt(loc Location) Placement { return Placement{Sensitive: loc, Other: loc} }

// Of returns where p keeps assets of kind k.
func (p Placement) Of(k AssetKind) Location {
	if k.Sensitive() {
		return p.Sensitive
	}
	return p.Other
}

// stock is one row of an Inventory: every asset of one kind, each of
// the same size, kept at one location.
type stock struct {
	kind  AssetKind
	count int
	bytes float64 // size of one asset
	loc   Location
}

// Inventory is the institution's asset inventory in closed form: for
// each kind, how many assets there are, the size of one and where they
// are kept. The hybrid deployment policy decides placements; the
// security model scores sensitive exposure; the migration planner sums
// egress bytes. Every query is O(1) in the institution's size.
type Inventory struct {
	rows [4]stock
}

// NewInventory builds an inventory representative of an institution
// with the given number of courses and students, placed by at: per
// course, bulk content and an exam bundle; per student, a grade record
// and submissions.
func NewInventory(courses, students int, at Placement) Inventory {
	if courses < 0 || students < 0 {
		panic("lms: NewInventory with negative sizes")
	}
	inv := Inventory{rows: [4]stock{
		{kind: CourseContent, count: courses, bytes: 2e9},  // ~2 GB of video+slides per course
		{kind: ExamQuestions, count: courses, bytes: 20e6}, // exam bundle
		{kind: Grades, count: students, bytes: 1e6},
		{kind: Submissions, count: students, bytes: 50e6},
	}}
	for i := range inv.rows {
		inv.rows[i].loc = at.Of(inv.rows[i].kind)
	}
	return inv
}

// Count returns how many assets are at loc.
func (inv Inventory) Count(loc Location) int {
	n := 0
	for _, r := range inv.rows {
		if r.loc == loc {
			n += r.count
		}
	}
	return n
}

// SensitiveCount returns how many sensitive assets are at loc.
func (inv Inventory) SensitiveCount(loc Location) int {
	n := 0
	for _, r := range inv.rows {
		if r.kind.Sensitive() && r.loc == loc {
			n += r.count
		}
	}
	return n
}

// BytesAt sums the stored bytes at loc. Every size is a whole number of
// bytes, so each product and partial sum is an integer, exact in a
// float64 below 2^53 bytes (9 PB).
func (inv Inventory) BytesAt(loc Location) float64 {
	var sum float64
	for _, r := range inv.rows {
		if r.loc == loc {
			sum += float64(r.count) * r.bytes
		}
	}
	return sum
}

// SensitiveShare returns the fraction of sensitive assets located at loc
// (0 when there are no sensitive assets).
func (inv Inventory) SensitiveShare(loc Location) float64 {
	var total, at int
	for _, r := range inv.rows {
		if !r.kind.Sensitive() {
			continue
		}
		total += r.count
		if r.loc == loc {
			at += r.count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(at) / float64(total)
}
