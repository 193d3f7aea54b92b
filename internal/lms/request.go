package lms

import (
	"fmt"

	"elearncloud/internal/sim"
)

// Class identifies a request type in the LMS workload mix.
type Class int

// Request classes in the canonical e-learning mix.
const (
	Login Class = iota + 1
	PageView
	VideoChunk
	QuizFetch
	QuizSubmit
	Upload
	ForumPost
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Login:
		return "login"
	case PageView:
		return "page-view"
	case VideoChunk:
		return "video-chunk"
	case QuizFetch:
		return "quiz-fetch"
	case QuizSubmit:
		return "quiz-submit"
	case Upload:
		return "upload"
	case ForumPost:
		return "forum-post"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassSpec describes one request class's resource behavior.
type ClassSpec struct {
	// Service is the CPU service demand distribution in seconds at
	// nominal VM speed.
	Service sim.Dist
	// Payload is the response payload size distribution in bytes.
	Payload sim.Dist
	// Sensitive marks classes that touch protected digital assets (exam
	// questions, grades) — the hybrid policy pins these to the private
	// side, and the security model scores their exposure.
	Sensitive bool
}

// Catalog maps classes to their specs. A catalog is immutable after
// construction and safe to share.
type Catalog struct {
	// specs is indexed by Class; the zero Class has no spec.
	specs [ForumPost + 1]ClassSpec
}

// DefaultCatalog returns the canonical e-learning request catalog. Service
// demands are log-normal around typical LMS handler costs; payloads are
// log-normal for HTML/JSON and Pareto for user uploads (heavy-tailed
// assignment files).
func DefaultCatalog() *Catalog {
	return &Catalog{specs: [ForumPost + 1]ClassSpec{
		Login:      {Service: sim.LogNormal(0.030, 0.4), Payload: sim.LogNormal(20e3, 0.3)},
		PageView:   {Service: sim.LogNormal(0.020, 0.4), Payload: sim.LogNormal(150e3, 0.5)},
		VideoChunk: {Service: sim.LogNormal(0.005, 0.3), Payload: sim.LogNormal(2e6, 0.4)},
		QuizFetch:  {Service: sim.LogNormal(0.025, 0.4), Payload: sim.LogNormal(50e3, 0.3), Sensitive: true},
		QuizSubmit: {Service: sim.LogNormal(0.040, 0.4), Payload: sim.LogNormal(10e3, 0.3), Sensitive: true},
		Upload:     {Service: sim.LogNormal(0.050, 0.5), Payload: sim.Pareto(1.5, 200e3)},
		ForumPost:  {Service: sim.LogNormal(0.030, 0.4), Payload: sim.LogNormal(30e3, 0.4)},
	}}
}

// Spec returns the spec for a class; it panics on unknown classes, which
// indicate a programming error in workload construction.
func (cat *Catalog) Spec(c Class) ClassSpec {
	if c < Login || c > ForumPost {
		panic(fmt.Sprintf("lms: unknown class %v", c))
	}
	return cat.specs[c]
}

// Mix is a probability distribution over request classes, describing what
// a session does: mostly pages and video during teaching, quiz-heavy
// during exams.
type Mix struct {
	classes []Class
	weights []float64
	// cum holds the running sums of weights, summed in order as
	// sim.RNG.Pick sums them, so Sample draws Pick's class.
	cum []float64
}

// NewMix builds a mix from class weights; weights need not sum to one.
func NewMix(weights map[Class]float64) *Mix {
	m := &Mix{}
	total := 0.0
	for c := Login; c <= ForumPost; c++ {
		if w, ok := weights[c]; ok && w > 0 {
			total += w
			m.classes = append(m.classes, c)
			m.weights = append(m.weights, w)
			m.cum = append(m.cum, total)
		}
	}
	if len(m.classes) == 0 {
		panic("lms: NewMix with no positive weights")
	}
	return m
}

// TeachingMix is the steady-semester request mix.
func TeachingMix() *Mix {
	return NewMix(map[Class]float64{
		Login: 4, PageView: 50, VideoChunk: 25, QuizFetch: 6,
		QuizSubmit: 4, Upload: 4, ForumPost: 7,
	})
}

// ExamMix is the exam-window request mix: quiz traffic dominates and it
// is nearly all sensitive.
func ExamMix() *Mix {
	return NewMix(map[Class]float64{
		Login: 8, PageView: 12, QuizFetch: 40, QuizSubmit: 38, ForumPost: 2,
	})
}

// Sample draws a class according to the weights: the class
// rng.Pick(weights) picks, from the same single draw, without
// re-summing the weights.
func (m *Mix) Sample(rng *sim.RNG) Class {
	u := rng.Float64() * m.cum[len(m.cum)-1]
	for i, c := range m.cum {
		if u < c {
			return m.classes[i]
		}
	}
	return m.classes[len(m.classes)-1]
}

// MeanService returns the weight-averaged mean CPU demand (seconds) of
// the mix under a catalog — the number capacity sizing runs on.
func (m *Mix) MeanService(cat *Catalog) float64 {
	var total, acc float64
	for i, c := range m.classes {
		total += m.weights[i]
		acc += m.weights[i] * cat.Spec(c).Service.Mean()
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// MeanPayload returns the weight-averaged mean response payload (bytes)
// of the mix under a catalog — the number egress estimation runs on.
func (m *Mix) MeanPayload(cat *Catalog) float64 {
	var total, acc float64
	for i, c := range m.classes {
		total += m.weights[i]
		acc += m.weights[i] * cat.Spec(c).Payload.Mean()
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// PayloadShare returns the fraction of the mix's delivered bytes
// (weight × mean payload over the total) on the classes in reports.
// The fluid model splits bytes by it: video to the CDN, sensitive
// classes to a hybrid's private side.
func (m *Mix) PayloadShare(cat *Catalog, in func(Class) bool) float64 {
	var total, classBytes float64
	for i, c := range m.classes {
		b := m.weights[i] * cat.Spec(c).Payload.Mean()
		total += b
		if in(c) {
			classBytes += b
		}
	}
	if total == 0 {
		return 0
	}
	return classBytes / total
}

// SensitiveShare returns the weight fraction on sensitive classes given a
// catalog; the security model uses it to size asset exposure.
func (m *Mix) SensitiveShare(cat *Catalog) float64 {
	var total, sensitive float64
	for i, c := range m.classes {
		total += m.weights[i]
		if cat.Spec(c).Sensitive {
			sensitive += m.weights[i]
		}
	}
	if total == 0 {
		return 0
	}
	return sensitive / total
}
