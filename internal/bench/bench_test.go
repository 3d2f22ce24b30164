package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"gengc"
	"gengc/internal/metrics"
	"gengc/internal/workload"
)

// tinyOpts keeps experiment runs minimal for unit tests.
func tinyOpts() Options {
	return Options{Scale: 0.002, Repeats: 1, Seed: 1}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1.0 || o.Repeats != 3 || o.Seed == 0 || o.HeapBytes != 32<<20 {
		t.Errorf("defaults = %+v", o)
	}
}

// TestPageCostDerivation re-derives pageCost from the paper's tables:
// a least-squares fit, with no intercept, of Figure 13's cycle times
// against Figure 11's objects scanned and Figure 15's pages gives the
// cost of a page in object scans, and one object scan here costs
// traceNsPerObject.
func TestPageCostDerivation(t *testing.T) {
	const traceNsPerObject = 32 // gc.trace.ns_per_object, traced old_mutation
	var soo, spp, sop, sot, spt float64
	cells := 0
	for name, f11 := range paperFig11 {
		f13, f15 := paperFig13[name], paperFig15[name]
		for _, c := range [][3]float64{
			{f11.Partial + f11.InterGen, f13.Partial, f15.Partial},
			{f11.Full, f13.Full, f15.Full},
			{f11.NonGen, f13.NonGen, f15.NonGen},
		} {
			o, ms, pg := c[0], c[1], c[2]
			if o < 0 || ms < 0 || pg < 0 {
				continue // not reported (mtrt never ran a full collection)
			}
			cells++
			soo, spp, sop, sot, spt = soo+o*o, spp+pg*pg, sop+o*pg, sot+o*ms, spt+pg*ms
		}
	}
	if cells != 20 {
		t.Fatalf("%d cells report all three figures, want 20", cells)
	}
	det := soo*spp - sop*sop
	perObject := (sot*spp - spt*sop) / det // ms
	perPage := (spt*soo - sot*sop) / det
	ratio := perPage / perObject
	t.Logf("fit: %.2f µs/object, %.1f µs/page, one page = %.1f object scans",
		1000*perObject, 1000*perPage, ratio)
	want := ratio * traceNsPerObject
	if got := float64(pageCost.Nanoseconds()); math.Abs(got-want) > 0.05*want {
		t.Errorf("pageCost = %v, derivation gives %.0f ns (%.1f scans × %d ns)",
			pageCost, want, ratio, traceNsPerObject)
	}
}

// TestModelAndPairs checks the model arithmetic and the pair scoring on
// synthetic runs whose modeled and wall-clock verdicts disagree.
func TestModelAndPairs(t *testing.T) {
	run := func(wallMs, pages int) workload.Result {
		return workload.Result{Profile: "p", Elapsed: time.Duration(wallMs) * time.Millisecond,
			Summary: metrics.Summary{PagesTouched: int64(pages)}}
	}
	if got, want := Modeled(run(10, 1000)), 10*time.Millisecond+1000*pageCost; got != want {
		t.Errorf("Modeled = %v, want %v", got, want)
	}
	gen := []workload.Result{run(10, 100), run(12, 100), run(9, 100)}
	non := []workload.Result{run(9, 1000), run(9, 1000), run(8, 100)}
	imp := compare(gen, non)
	if imp.PairsWon != 2 {
		t.Errorf("pairs won = %d, want 2", imp.PairsWon)
	}
	if imp.Profile != "p" || imp.Gen.Elapsed != 10*time.Millisecond || imp.NonGen.Elapsed != 9*time.Millisecond {
		t.Errorf("medians = %v / %v", imp.Gen.Elapsed, imp.NonGen.Elapsed)
	}
	genT, nonT := 10*time.Millisecond+100*pageCost, 9*time.Millisecond+1000*pageCost
	if want := 100 * (nonT - genT).Seconds() / nonT.Seconds(); math.Abs(imp.Percent-want) > 1e-9 || want <= 0 {
		t.Errorf("modeled improvement = %v, want %v", imp.Percent, want)
	}
	if want := 100 * (9.0 - 10.0) / 9.0; math.Abs(imp.WallPercent()-want) > 1e-9 {
		t.Errorf("wall improvement = %v, want %v", imp.WallPercent(), want)
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		ID: "fig0", Title: "demo",
		Header: []string{"name", "value"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("alpha", "1.5")
	tab.AddRow("b", "22")
	var sb strings.Builder
	tab.Format(&sb)
	out := sb.String()
	for _, want := range []string{"FIG0", "demo", "alpha", "22", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureImprovement(t *testing.T) {
	o := tinyOpts()
	imp, err := o.MeasureImprovement(workload.Anagram(),
		o.withDefaults().config(gengc.Generational, defaultYoung, defaultCard, 0))
	if err != nil {
		t.Fatal(err)
	}
	if imp.Profile != "Anagram" {
		t.Errorf("profile = %q", imp.Profile)
	}
	if imp.Gen.Mode != gengc.Generational || imp.NonGen.Mode != gengc.NonGenerational {
		t.Error("modes not recorded")
	}
	if imp.Percent < -1000 || imp.Percent > 1000 {
		t.Errorf("implausible improvement %v", imp.Percent)
	}
}

func TestFig8Tiny(t *testing.T) {
	tab, err := tinyOpts().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig8" || len(tab.Rows) != 1 {
		t.Fatalf("table = %+v", tab)
	}
	if tab.Rows[0][2] != "25.0%" {
		t.Errorf("paper MP column = %q, want 25.0%%", tab.Rows[0][2])
	}
}

func TestCharacterizationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs all profiles")
	}
	o := tinyOpts()
	o.Scale = 0.003
	chs, err := o.Characterize()
	if err != nil {
		t.Fatal(err)
	}
	if len(chs) != 7 {
		t.Fatalf("%d characterizations, want 7", len(chs))
	}
	for _, build := range []func([]Improvement) Table{
		Fig10, Fig11, Fig12, Fig13, Fig14, Fig15,
	} {
		tab := build(chs)
		if len(tab.Rows) != 7 {
			t.Errorf("%s has %d rows, want 7", tab.ID, len(tab.Rows))
		}
		var sb strings.Builder
		tab.Format(&sb) // must not panic
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	names := []string{"_201_compress", "_202_jess", "_209_db", "_213_javac", "_227_mtrt", "_228_jack", "Anagram"}
	for _, n := range names {
		if _, ok := paperFig10[n]; !ok {
			t.Errorf("paperFig10 missing %s", n)
		}
		if _, ok := paperFig11[n]; !ok {
			t.Errorf("paperFig11 missing %s", n)
		}
		if _, ok := paperFig12[n]; !ok {
			t.Errorf("paperFig12 missing %s", n)
		}
		if _, ok := paperFig13[n]; !ok {
			t.Errorf("paperFig13 missing %s", n)
		}
		if _, ok := paperFig15[n]; !ok {
			t.Errorf("paperFig15 missing %s", n)
		}
		if _, ok := paperFig22[n]; !ok {
			t.Errorf("paperFig22 missing %s", n)
		}
	}
	for _, n := range []int{2, 4, 6, 8, 10} {
		if _, ok := paperFig7[n]; !ok {
			t.Errorf("paperFig7 missing %d threads", n)
		}
	}
	if len(paperFig9) != 6 {
		t.Errorf("paperFig9 has %d entries, want 6", len(paperFig9))
	}
}

func TestMeasureRelative(t *testing.T) {
	o := tinyOpts()
	od := o.withDefaults()
	rel, err := o.MeasureRelative(workload.Jess(),
		od.config(gengc.GenerationalAging, defaultYoung, defaultCard, 1),
		od.config(gengc.Generational, defaultYoung, defaultCard, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Percent < -1000 || rel.Percent > 1000 {
		t.Errorf("implausible relative improvement %v", rel.Percent)
	}
}

func TestTableFormatCSV(t *testing.T) {
	tab := Table{ID: "figX", Title: "csv demo", Header: []string{"a", "b"}}
	tab.AddRow("x,y", `q"u`)
	var sb strings.Builder
	tab.FormatCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""u"`) {
		t.Errorf("CSV escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, "# figX: csv demo") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}
