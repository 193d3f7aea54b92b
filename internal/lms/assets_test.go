package lms

import (
	"math"
	"testing"
)

func TestAssetKindSensitivity(t *testing.T) {
	if !ExamQuestions.Sensitive() || !Grades.Sensitive() {
		t.Fatal("exam questions and grades must be sensitive")
	}
	if CourseContent.Sensitive() || Submissions.Sensitive() {
		t.Fatal("content and submissions must not be sensitive")
	}
}

func TestAssetStoreInventory(t *testing.T) {
	st := NewInventory(10, 100, AllAt(OnPrivate))
	// 10 courses * 2 assets + 100 students * 2 assets.
	if st.Count(OnPrivate) != 220 || st.Count(OnPublic) != 0 {
		t.Fatalf("all-private placement wrong: private=%d public=%d",
			st.Count(OnPrivate), st.Count(OnPublic))
	}
}

func TestAssetStorePlacementPolicies(t *testing.T) {
	st := NewInventory(5, 50, AllAt(OnPublic))
	if st.Count(OnPublic) != 110 { // 5*2 + 50*2
		t.Fatal("AllAt(OnPublic) incomplete")
	}
	if st.SensitiveShare(OnPublic) != 1 {
		t.Fatalf("SensitiveShare(public) = %v, want 1", st.SensitiveShare(OnPublic))
	}

	st = NewInventory(5, 50, Placement{Sensitive: OnPrivate, Other: OnPublic})
	if st.SensitiveCount(OnPublic) != 0 {
		t.Fatal("pinning left sensitive assets public")
	}
	// 5 exam bundles + 50 grade records pinned private.
	if got := st.SensitiveCount(OnPrivate); got != 55 {
		t.Fatalf("SensitiveCount(private) = %d, want 55", got)
	}
	if st.SensitiveShare(OnPrivate) != 1 {
		t.Fatal("SensitiveShare(private) != 1 after pinning")
	}
	// Bulk content is on the public side.
	if st.Count(OnPublic) != 110-55 {
		t.Fatalf("public count = %d", st.Count(OnPublic))
	}
}

func TestAssetStoreBytes(t *testing.T) {
	st := NewInventory(1, 1, AllAt(OnPrivate))
	// 2e9 (content) + 20e6 (exam) + 1e6 (grade) + 50e6 (submissions).
	want := 2e9 + 20e6 + 1e6 + 50e6
	if got := st.BytesAt(OnPrivate); math.Abs(got-want) > 1 {
		t.Fatalf("BytesAt = %v, want %v", got, want)
	}
	if st.BytesAt(OnPublic) != 0 {
		t.Fatal("public bytes should be 0")
	}
}

func TestAssetStoreNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewInventory(-1, 0, AllAt(OnPrivate))
}

func TestAssetStoreEmptySensitiveShare(t *testing.T) {
	st := NewInventory(0, 0, AllAt(OnPublic))
	if st.SensitiveShare(OnPublic) != 0 {
		t.Fatal("empty store SensitiveShare != 0")
	}
}

func TestLocationAndKindStrings(t *testing.T) {
	if OnPublic.String() != "public" || OnPrivate.String() != "private" {
		t.Fatal("location strings wrong")
	}
	if Location(9).String() != "Location(9)" {
		t.Fatal("unknown location string wrong")
	}
	kinds := map[AssetKind]string{
		CourseContent: "course-content", ExamQuestions: "exam-questions",
		Grades: "grades", Submissions: "submissions",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	if AssetKind(9).String() != "AssetKind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

// The closed form must give the same float the per-asset inventory it
// replaced summed in order (per course: content, exam; per student:
// grade, submissions), or every storage bill would move.
func TestInventoryBytesMatchPerAssetSum(t *testing.T) {
	placements := []Placement{AllAt(OnPublic), AllAt(OnPrivate), {Sensitive: OnPrivate, Other: OnPublic}}
	for _, size := range []struct{ courses, students int }{
		{0, 0}, {1, 1}, {3, 7}, {80, 2000}, {4000, 100000}, {20000, 500000},
	} {
		for _, p := range placements {
			for _, loc := range []Location{OnPublic, OnPrivate} {
				var want float64
				for c := 0; c < size.courses; c++ {
					if p.Of(CourseContent) == loc {
						want += 2e9
					}
					if p.Of(ExamQuestions) == loc {
						want += 20e6
					}
				}
				for s := 0; s < size.students; s++ {
					if p.Of(Grades) == loc {
						want += 1e6
					}
					if p.Of(Submissions) == loc {
						want += 50e6
					}
				}
				inv := NewInventory(size.courses, size.students, p)
				if got := inv.BytesAt(loc); got != want {
					t.Errorf("%+v %+v BytesAt(%v) = %v, per-asset sum %v", size, p, loc, got, want)
				}
			}
		}
	}
}
