package experiments

import (
	"encoding/csv"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"elearncloud/internal/metrics"
)

// cell parses a numeric cell, stripping units the renderers add.
func cell(t *testing.T, tbl *metrics.Table, row, col int) float64 {
	t.Helper()
	s := tbl.Cell(row, col)
	s = strings.TrimSuffix(s, "ms")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "/yr")
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tbl.Cell(row, col), err)
	}
	return v
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d experiments, want 22 (12 tables + 10 figures)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := Find("table3"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestRegistryTags: every experiment carries at least one well-formed
// tag, exactly one provenance tag (@paper/@extension/@mooc), and the
// tag helpers behave (KnownTags sorted-unique, HasTag @-optional).
func TestRegistryTags(t *testing.T) {
	provenance := map[string]bool{"@paper": true, "@extension": true, "@mooc": true}
	for _, e := range All() {
		if len(e.Tags) == 0 {
			t.Errorf("%s: no tags", e.ID)
		}
		prov := 0
		for _, tag := range e.Tags {
			if !strings.HasPrefix(tag, "@") || strings.ContainsAny(tag[1:], "@ \t") || len(tag) < 2 {
				t.Errorf("%s: malformed tag %q", e.ID, tag)
			}
			if provenance[tag] {
				prov++
			}
		}
		if prov != 1 {
			t.Errorf("%s: %d provenance tags in %v, want exactly one of @paper/@extension/@mooc",
				e.ID, prov, e.Tags)
		}
	}

	known := KnownTags()
	if !sort.StringsAreSorted(known) {
		t.Errorf("KnownTags not sorted: %v", known)
	}
	for i := 1; i < len(known); i++ {
		if known[i] == known[i-1] {
			t.Errorf("KnownTags has duplicate %q", known[i])
		}
	}

	e, _ := Find("table9")
	if !e.HasTag("@mooc") || !e.HasTag("mooc") {
		t.Error("HasTag must accept the tag with and without the leading @")
	}
	if e.HasTag("paper") {
		t.Error("table9 is not a @paper experiment")
	}
}

// TestAllExperimentsRegenerate end-to-ends the experiments that have no
// dedicated shape test (the rest are exercised — and their content
// checked — by the Test<Table|Figure>* functions in this file): each
// must produce a non-empty table with consistent row widths. Skipped
// under -short (these sweep tens of simulated model-hours).
func TestAllExperimentsRegenerate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy experiment sweep skipped in -short mode")
	}
	covered := map[string]bool{
		"table1": true, "table2": true, "table5": true, "table7": true,
		"table8": true, "figure1": true, "figure3": true, "figure5": true,
		"figure7": true, "figure8": true, "figure9": true,
	}
	for _, e := range All() {
		if covered[e.ID] {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(11, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.NumRows() == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			// A titled table renders the title underlined with '='.
			if lines := strings.SplitN(tbl.String(), "\n", 3); len(lines) < 2 || !strings.HasPrefix(lines[1], "=") {
				t.Fatalf("%s has no title", e.ID)
			}
			r := csv.NewReader(strings.NewReader(tbl.CSV()))
			r.FieldsPerRecord = -1
			records, err := r.ReadAll()
			if err != nil || len(records) < 2 {
				t.Fatalf("%s CSV has no data rows (err %v)", e.ID, err)
			}
			for _, row := range records[1:] {
				if len(row) != len(records[1]) {
					t.Fatalf("%s has ragged rows", e.ID)
				}
			}
		})
	}
}

func TestTable1MeritsShape(t *testing.T) {
	t.Parallel()
	tbl, err := Table1Merits(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7 merit rows", tbl.NumRows())
	}
	wins := 0
	for i := 0; i < tbl.NumRows(); i++ {
		if tbl.Cell(i, 3) == "yes" {
			wins++
		}
	}
	// The paper claims cloud wins every merit; our measured reproduction
	// must confirm at least 5 of 7 rows (cost at college scale and raw
	// request latency legitimately depend on parameters).
	if wins < 5 {
		t.Fatalf("cloud wins only %d/7 merit rows:\n%s", wins, tbl)
	}
}

func TestTable2RisksShape(t *testing.T) {
	t.Parallel()
	tbl, err := Table2Risks(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 risk rows", tbl.NumRows())
	}
	// Security row: public risk > hybrid risk >= private-order checks.
	pub := cell(t, tbl, 2, 1)
	priv := cell(t, tbl, 2, 2)
	hyb := cell(t, tbl, 2, 3)
	if !(pub > hyb && hyb >= priv*0.5) {
		t.Fatalf("security ordering wrong: pub=%v priv=%v hyb=%v", pub, priv, hyb)
	}
	// Portability row: public exit most expensive.
	pubExit := cell(t, tbl, 3, 1)
	privExit := cell(t, tbl, 3, 2)
	hybExit := cell(t, tbl, 3, 3)
	if !(pubExit > hybExit && hybExit > privExit) {
		t.Fatalf("portability ordering wrong: %v %v %v", pubExit, privExit, hybExit)
	}
}

func TestTable5AutoscalerOrdering(t *testing.T) {
	t.Parallel()
	tbl, err := Table5Autoscalers(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Fixed (peak-sized) burns the most VM-hours; reactive burns fewer.
	var fixedHours, reactiveHours float64
	for i := 0; i < tbl.NumRows(); i++ {
		switch tbl.Cell(i, 0) {
		case "fixed":
			fixedHours = cell(t, tbl, i, 5)
		case "reactive":
			reactiveHours = cell(t, tbl, i, 5)
		}
	}
	if reactiveHours >= fixedHours {
		t.Fatalf("reactive VM-hours %v >= fixed %v — elasticity saved nothing:\n%s",
			reactiveHours, fixedHours, tbl)
	}
}

func TestFigure3CrossoverShape(t *testing.T) {
	t.Parallel()
	tbl, err := Figure3CostCrossover(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 8 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Public wins at the smallest scale; private wins at the largest.
	if tbl.Cell(0, 5) != "public" {
		t.Fatalf("cheapest at 200 students = %s, want public:\n%s", tbl.Cell(0, 5), tbl)
	}
	last := tbl.NumRows() - 1
	if tbl.Cell(last, 5) != "private" {
		t.Fatalf("cheapest at 20000 students = %s, want private:\n%s", tbl.Cell(last, 5), tbl)
	}
	// Private cost per student decreases monotonically with scale.
	prev := cell(t, tbl, 0, 2)
	for i := 1; i < tbl.NumRows(); i++ {
		cur := cell(t, tbl, i, 2)
		if cur > prev*1.05 {
			t.Fatalf("private $/student rose with scale at row %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestFigure5ReliabilityMonotone(t *testing.T) {
	t.Parallel()
	tbl, err := Figure5NetworkRisk(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 7 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Availability improves as MTBF grows.
	worst := cell(t, tbl, 0, 1)
	best := cell(t, tbl, 5, 1)
	if best <= worst {
		t.Fatalf("availability not improving with MTBF: %v vs %v\n%s", worst, best, tbl)
	}
	// The LAN row never disconnects.
	lan := tbl.NumRows() - 1
	if tbl.Cell(lan, 2) != "0" {
		t.Fatalf("campus LAN disconnected: %s", tbl.Cell(lan, 2))
	}
}

func TestFigure7LockinMonotone(t *testing.T) {
	t.Parallel()
	tbl, err := Figure7Lockin(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	prevTotal := -1.0
	typicals := map[string]bool{}
	for i := 0; i < tbl.NumRows(); i++ {
		total := cell(t, tbl, i, 3)
		if total < prevTotal {
			t.Fatalf("migration cost not monotone in lock-in at row %d", i)
		}
		prevTotal = total
		if m := tbl.Cell(i, 5); m != "" {
			typicals[m] = true
		}
	}
	// The three models' typical adoption levels are all marked on the
	// curve, and their order on the curve is private < hybrid < public.
	for _, want := range []string{"private", "hybrid", "public"} {
		if !typicals[want] {
			t.Fatalf("typical marker for %s missing:\n%s", want, tbl)
		}
	}
}

func TestFigure8CDNShiftsCrossover(t *testing.T) {
	t.Parallel()
	tbl, err := Figure8CDN(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.NumRows(); i++ {
		pub := cell(t, tbl, i, 1)
		withCDN := cell(t, tbl, i, 2)
		if withCDN >= pub {
			t.Fatalf("row %d: CDN made public dearer (%v vs %v)\n%s", i, withCDN, pub, tbl)
		}
	}
}

func TestFigure9HostFailureShape(t *testing.T) {
	t.Parallel()
	tbl, err := Figure9HostFailure(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// The failing private run kills jobs; the reference and public runs
	// kill none.
	if cell(t, tbl, 0, 1) <= 0 {
		t.Fatalf("private failure killed no jobs:\n%s", tbl)
	}
	if cell(t, tbl, 2, 1) != 0 || cell(t, tbl, 3, 1) != 0 {
		t.Fatalf("reference runs killed jobs:\n%s", tbl)
	}
	// Damaged private must look worse than its undisturbed reference.
	if cell(t, tbl, 0, 2) <= cell(t, tbl, 2, 2) && cell(t, tbl, 0, 3) <= cell(t, tbl, 2, 3) {
		t.Fatalf("host failure left no visible damage:\n%s", tbl)
	}
}

func TestTable8PurchaseMixShape(t *testing.T) {
	t.Parallel()
	tbl, err := Table8PurchaseMix(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	onDemand := cell(t, tbl, 0, 2)
	optimal := cell(t, tbl, 1, 2)
	allReserved := cell(t, tbl, 2, 2)
	// The optimum never loses to either pure strategy.
	if optimal > onDemand || optimal > allReserved {
		t.Fatalf("optimal mix %v beaten by pure strategy (%v / %v):\n%s",
			optimal, onDemand, allReserved, tbl)
	}
	// Reserving everything for a bursty semester overpays.
	if allReserved <= onDemand {
		t.Fatalf("all-reserved %v should overpay vs on-demand %v for bursty load",
			allReserved, onDemand)
	}
}

func TestTable7FederationShape(t *testing.T) {
	t.Parallel()
	tbl, err := Table7Federation(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	for i := 0; i < tbl.NumRows(); i++ {
		if saving := cell(t, tbl, i, 5); saving <= 0 {
			t.Fatalf("member row %d does not save by federating:\n%s", i, tbl)
		}
	}
}

// TestTable12ForecastAcceptance pins the experiment's claims at the
// golden seed: each forecaster, predictive and growth-fit, must beat
// reactive on BOTH rejected mass and $ per served request through the
// deadline storm and bill at most 1.25x the oracle's VM-hours;
// growth-fit must also land within 15% of them, and the oracle must
// hold the best tail. These are the relations the table exists to
// demonstrate — if a change breaks one, the experiment's story is gone
// even if the run succeeds.
func TestTable12ForecastAcceptance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("four deadline-storm DES runs skipped in -short mode")
	}
	tbl, err := Table12ForecastPolicies(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 policies", tbl.NumRows())
	}
	type row struct{ p95, rejected, vmHours, perServed float64 }
	byPolicy := map[string]row{}
	for i := 0; i < tbl.NumRows(); i++ {
		byPolicy[tbl.Cell(i, 0)] = row{
			p95:       cell(t, tbl, i, 1),
			rejected:  cell(t, tbl, i, 2),
			vmHours:   cell(t, tbl, i, 4),
			perServed: cell(t, tbl, i, 5),
		}
	}
	gf, re, or := byPolicy["growth-fit"], byPolicy["reactive"], byPolicy["oracle"]
	for _, name := range []string{"predictive", "growth-fit"} {
		f := byPolicy[name]
		if f.rejected >= re.rejected {
			t.Errorf("%s rejected %v, not under reactive's %v:\n%s", name, f.rejected, re.rejected, tbl)
		}
		if f.perServed >= re.perServed {
			t.Errorf("%s $/1k served %v, not under reactive's %v:\n%s", name, f.perServed, re.perServed, tbl)
		}
		if f.vmHours > 1.25*or.vmHours {
			t.Errorf("%s VM-hours %v, above 1.25x the oracle's %v:\n%s", name, f.vmHours, or.vmHours, tbl)
		}
	}
	if diff := math.Abs(gf.vmHours-or.vmHours) / or.vmHours; diff > 0.15 {
		t.Errorf("growth-fit VM-hours %v vs oracle %v — %.1f%% apart, want <= 15%%:\n%s",
			gf.vmHours, or.vmHours, diff*100, tbl)
	}
	for name, r := range byPolicy {
		if name != "oracle" && r.p95 < or.p95 {
			t.Errorf("%s P95 %vms beat the oracle's %vms — the yardstick is broken:\n%s",
				name, r.p95, or.p95, tbl)
		}
		if name != "oracle" && r.rejected < or.rejected {
			t.Errorf("%s rejected %v under the oracle's %v:\n%s", name, r.rejected, or.rejected, tbl)
		}
	}
}

func TestFigure1WorkloadShape(t *testing.T) {
	t.Parallel()
	tbl, err := Figure1Workload(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 24 {
		t.Fatalf("rows = %d, want 24 hours", tbl.NumRows())
	}
	// 20:00 is the homework peak; 03:00 the trough.
	if cell(t, tbl, 20, 1) <= cell(t, tbl, 3, 1) {
		t.Fatal("diurnal peak/trough inverted")
	}
}
