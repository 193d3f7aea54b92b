package lms

import (
	"math"
	"testing"

	"elearncloud/internal/sim"
)

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		Login: "login", PageView: "page-view", VideoChunk: "video-chunk",
		QuizFetch: "quiz-fetch", QuizSubmit: "quiz-submit",
		Upload: "upload", ForumPost: "forum-post",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class string wrong")
	}
}

func TestDefaultCatalogSpecs(t *testing.T) {
	cat := DefaultCatalog()
	for c := Login; c <= ForumPost; c++ {
		spec := cat.Spec(c)
		if spec.Service == nil || spec.Payload == nil {
			t.Fatalf("class %v has nil dists", c)
		}
		if spec.Service.Mean() <= 0 || spec.Service.Mean() > 1 {
			t.Fatalf("class %v service mean %v implausible", c, spec.Service.Mean())
		}
	}
	if !cat.Spec(QuizFetch).Sensitive || !cat.Spec(QuizSubmit).Sensitive {
		t.Fatal("quiz classes must be sensitive")
	}
	if cat.Spec(PageView).Sensitive {
		t.Fatal("page views must not be sensitive")
	}
}

func TestCatalogUnknownClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultCatalog().Spec(Class(99))
}

func TestMixSampleFollowsWeights(t *testing.T) {
	rng := sim.NewRNG(5)
	m := NewMix(map[Class]float64{PageView: 9, Upload: 1})
	pages := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(rng) == PageView {
			pages++
		}
	}
	share := float64(pages) / n
	if math.Abs(share-0.9) > 0.01 {
		t.Fatalf("PageView share = %v, want ~0.9", share)
	}
}

// TestMixSampleIsPick: Sample draws exactly the class sim.RNG.Pick
// draws over the mix's weights, draw for draw, on both standard mixes
// and on weights whose running sums round.
func TestMixSampleIsPick(t *testing.T) {
	for _, m := range []*Mix{TeachingMix(), ExamMix(), NewMix(map[Class]float64{
		Login: 0.1, PageView: 0.7, VideoChunk: 0.2, QuizFetch: 1e-17, Upload: 1.0 / 3, ForumPost: 1e16,
	})} {
		a, b := sim.NewRNG(9), sim.NewRNG(9)
		for i := 0; i < 100000; i++ {
			if got, want := m.Sample(a), m.classes[b.Pick(m.weights)]; got != want {
				t.Fatalf("draw %d: Sample = %v, Pick = %v", i, got, want)
			}
		}
	}
}

func TestMixPanicsWithNoWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMix(map[Class]float64{PageView: 0})
}

func TestMixMeans(t *testing.T) {
	cat := DefaultCatalog()
	m := NewMix(map[Class]float64{PageView: 1, VideoChunk: 1})
	wantSvc := (0.020 + 0.005) / 2
	if got := m.MeanService(cat); math.Abs(got-wantSvc) > 1e-12 {
		t.Fatalf("MeanService = %v, want %v", got, wantSvc)
	}
	wantPay := (150e3 + 2e6) / 2
	if got := m.MeanPayload(cat); math.Abs(got-wantPay) > 1e-6 {
		t.Fatalf("MeanPayload = %v, want %v", got, wantPay)
	}
	// Video-heavy mixes move more bytes than page-heavy ones.
	pages := NewMix(map[Class]float64{PageView: 1})
	if m.MeanPayload(cat) <= pages.MeanPayload(cat) {
		t.Fatal("video mix should be heavier")
	}
}

func TestExamMixIsQuizHeavy(t *testing.T) {
	cat := DefaultCatalog()
	teaching := TeachingMix().SensitiveShare(cat)
	exam := ExamMix().SensitiveShare(cat)
	if exam <= teaching {
		t.Fatalf("exam sensitive share %v <= teaching %v", exam, teaching)
	}
	if exam < 0.5 {
		t.Fatalf("exam sensitive share %v, want majority", exam)
	}
}
