package core

import (
	"fmt"
	"sort"
	"strings"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
)

// Scorecard holds normalized 0-10 scores (higher is better) for each
// model on each requirement — the paper's comparison matrix.
type Scorecard struct {
	scores map[deploy.Kind]map[Requirement]float64
}

// BuildScorecard normalizes raw measurements into scores. Every metric
// is lower-is-better; the best model scores 10 and the others decay with
// their deficit relative to the metric's mean:
//
//	score = 10 · mean / (mean + (v − best))
//
// Unlike min-max scaling, this keeps near-ties near 10 (a 0.2 s p99 gap
// is not a 10-vs-0 verdict) while still separating order-of-magnitude
// differences, and it degrades gracefully when a metric's best value is
// zero.
func BuildScorecard(in *Inputs) (*Scorecard, error) {
	if in == nil {
		return nil, fmt.Errorf("core: BuildScorecard with nil inputs")
	}
	sc := &Scorecard{scores: make(map[deploy.Kind]map[Requirement]float64)}
	for _, k := range deploy.Kinds() {
		sc.scores[k] = make(map[Requirement]float64)
	}
	metricsByReq := map[Requirement]map[deploy.Kind]float64{
		Cost:          in.CostPerStudentMonth,
		Performance:   in.P95LatencySec,
		Scalability:   combineExam(in),
		Security:      in.AnnualSensitiveRisk,
		Portability:   in.MigrationUSD,
		Manageability: in.OpsBurdenUSDMonth,
	}
	for req, vals := range metricsByReq {
		if len(vals) == 0 {
			return nil, fmt.Errorf("core: no measurements for %v", req)
		}
		best, _ := minMax(vals)
		// Sum in sorted-key order: float addition is order-sensitive at
		// the ulp, and these means reach %.1f-rendered artifact cells.
		kinds := make([]deploy.Kind, 0, len(vals))
		for k := range vals {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		mean := 0.0
		for _, k := range kinds {
			mean += vals[k]
		}
		mean /= float64(len(vals))
		for _, k := range deploy.Kinds() {
			v, ok := vals[k]
			if !ok {
				return nil, fmt.Errorf("core: %v missing measurement for %v", req, k)
			}
			deficit := v - best
			if mean <= 0 || deficit <= 0 {
				sc.scores[k][req] = 10
				continue
			}
			sc.scores[k][req] = 10 * mean / (mean + deficit)
		}
	}
	return sc, nil
}

// combineExam folds exam error rate and exam tail latency into one
// scalability metric: errors dominate (an error is worse than a slow
// answer), latency breaks ties.
func combineExam(in *Inputs) map[deploy.Kind]float64 {
	out := make(map[deploy.Kind]float64, len(in.ExamErrorRate))
	for k, e := range in.ExamErrorRate {
		out[k] = e*100 + in.ExamP99Sec[k]
	}
	return out
}

func minMax(vals map[deploy.Kind]float64) (lo, hi float64) {
	first := true
	for _, v := range vals {
		if first {
			lo, hi, first = v, v, false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Score returns the normalized score for (kind, requirement).
func (sc *Scorecard) Score(k deploy.Kind, r Requirement) float64 {
	return sc.scores[k][r]
}

// Table renders the matrix as a metrics.Table (the paper's Table 3).
func (sc *Scorecard) Table() *metrics.Table {
	headers := []string{"requirement"}
	for _, k := range deploy.Kinds() {
		headers = append(headers, k.String())
	}
	t := metrics.NewTable("Deployment-model comparison matrix (0-10, higher is better)", headers...)
	for _, req := range Requirements() {
		row := []any{req.String()}
		for _, k := range deploy.Kinds() {
			row = append(row, fmt.Sprintf("%.1f", sc.Score(k, req)))
		}
		t.AddRow(row...)
	}
	return t
}

// Profile is an institution's requirement weighting and scale. Scale
// matters as much as the weights: the public/private cost ordering flips
// with population (Figure 3), so recommendations must be computed from
// inputs measured at the institution's own size.
type Profile struct {
	// Name labels the profile.
	Name string
	// Students is the institution's population; MeasureForProfile sizes
	// the component experiments with it.
	Students int
	// Weights must be positive and are normalized internally.
	Weights map[Requirement]float64
}

// Validate checks the profile has usable weights.
func (p Profile) Validate() error {
	if len(p.Weights) == 0 {
		return fmt.Errorf("core: profile %q has no weights", p.Name)
	}
	total := 0.0
	for _, r := range sortedRequirements(p.Weights) {
		w := p.Weights[r]
		if w < 0 {
			return fmt.Errorf("core: profile %q has negative weight for %v", p.Name, r)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("core: profile %q weights sum to zero", p.Name)
	}
	return nil
}

// Standard institution profiles used by Table 6.
var (
	// RuralSchool has no IT staff, little money, and modest scale — the
	// paper's rural learners.
	RuralSchool = Profile{Name: "rural-school", Students: 300, Weights: map[Requirement]float64{
		Cost: 0.35, Performance: 0.10, Scalability: 0.05,
		Security: 0.10, Portability: 0.10, Manageability: 0.30,
	}}
	// MidCollege balances everything.
	MidCollege = Profile{Name: "mid-college", Students: 2000, Weights: map[Requirement]float64{
		Cost: 0.20, Performance: 0.15, Scalability: 0.20,
		Security: 0.20, Portability: 0.10, Manageability: 0.15,
	}}
	// NationalPlatform is the paper's "national private cloud system":
	// sovereignty and scale first.
	NationalPlatform = Profile{Name: "national-platform", Students: 20000, Weights: map[Requirement]float64{
		Cost: 0.10, Performance: 0.10, Scalability: 0.25,
		Security: 0.30, Portability: 0.20, Manageability: 0.05,
	}}
)

// sortedRequirements returns the weight map's keys in ascending order,
// the stable iteration order every float reduction over weights uses.
func sortedRequirements(weights map[Requirement]float64) []Requirement {
	reqs := make([]Requirement, 0, len(weights))
	for r := range weights {
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	return reqs
}

// MeasureForProfile measures inputs at the profile's own scale, which is
// how Recommend should be fed: the cost axis is scale-dependent.
func MeasureForProfile(p Profile, seed uint64) (*Inputs, error) {
	return MeasureInputs(MeasureConfig{Seed: seed, Students: p.Students})
}

// Recommendation is one ranked model with its weighted total.
type Recommendation struct {
	Kind  deploy.Kind
	Total float64
}

// Recommend ranks the models for a profile, best first.
func (sc *Scorecard) Recommend(p Profile) ([]Recommendation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Weighted totals are rendered to %.1f in Table 6, so both sums run
	// in sorted-requirement order — map-order float addition could land
	// either side of a rounding boundary (the VMHours bug class).
	reqs := sortedRequirements(p.Weights)
	total := 0.0
	for _, r := range reqs {
		total += p.Weights[r]
	}
	out := make([]Recommendation, 0, len(sc.scores))
	for _, k := range deploy.Kinds() {
		sum := 0.0
		for _, r := range reqs {
			sum += p.Weights[r] / total * sc.Score(k, r)
		}
		out = append(out, Recommendation{Kind: k, Total: sum})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Kind < out[j].Kind
	})
	return out, nil
}

// Explain renders a ranking as a sentence for CLI output.
func Explain(p Profile, recs []Recommendation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ", p.Name)
	for i, r := range recs {
		if i > 0 {
			b.WriteString(" > ")
		}
		fmt.Fprintf(&b, "%s (%.1f)", r.Kind, r.Total)
	}
	return b.String()
}
