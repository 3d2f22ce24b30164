package bench

import (
	"strings"
	"testing"
)

// tinySpec is a one-cell-per-axis matrix that still completes cycles.
func tinySpec(t *testing.T) MatrixSpec {
	t.Helper()
	variants, err := MatrixVariants([]string{"churn", "zipf", "auction"})
	if err != nil {
		t.Fatal(err)
	}
	// Keep one representative variant per profile to stay fast.
	var picked []MatrixVariant
	seen := map[string]bool{}
	for _, v := range variants {
		if !seen[v.Profile] {
			seen[v.Profile] = true
			picked = append(picked, v)
		}
	}
	return MatrixSpec{
		Mutators:   []int{1, 2},
		Workers:    []int{1},
		Variants:   picked,
		TotalOps:   30_000,
		Passes:     1,
		YoungBytes: 512 << 10,
	}
}

func TestMatrixVariantsExpansion(t *testing.T) {
	vs, err := MatrixVariants([]string{"churn", "zipf", "auction"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 7 {
		t.Fatalf("expected 7 variants (2 churn + 3 zipf + 2 auction), got %d", len(vs))
	}
	if _, err := MatrixVariants([]string{"nope"}); err == nil {
		t.Error("unknown profile not rejected")
	}
}

func TestRunMatrixSmall(t *testing.T) {
	rep, err := RunMatrix(tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != MatrixSchema || rep.SchemaVersion != MatrixSchemaVersion {
		t.Errorf("schema stamp missing: %q v%d", rep.Schema, rep.SchemaVersion)
	}
	if rep.Host.Fingerprint() == "" || rep.Host.GoVersion == "" {
		t.Error("host metadata not stamped")
	}
	if len(rep.Cells) != 6 { // 3 profiles × 2 mutator counts
		t.Fatalf("expected 6 cells, got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %f", c.Key(), c.NsPerOp)
		}
		if c.Cycles == 0 {
			t.Errorf("%s: no collection cycles — metrics say nothing about the collector", c.Key())
		}
	}
	rep.Sanity()
	if len(rep.Regressions) != 0 {
		t.Errorf("sanity checks flagged a healthy run: %v", rep.Regressions)
	}
}

func TestMatrixBaselineHostMismatchRefused(t *testing.T) {
	rep := &MatrixReport{
		Host:  CurrentHost(),
		Cells: []MatrixCell{{Profile: "churn", Contention: "low", Mutators: 1, Workers: 1, NsPerOp: 100}},
	}
	rep.CompareBaseline(MatrixBaseline{
		Fingerprint: "plan9/mips gomaxprocs=64 numcpu=64",
		NsPerOp:     map[string]float64{rep.Cells[0].Key(): 1},
	}, 25)
	if !strings.HasPrefix(rep.BaselineComparison, "refused") {
		t.Errorf("cross-host comparison not refused: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("refused comparison still produced regressions: %v", rep.Regressions)
	}
}

// shapeCells is a two-group matrix (churn/low and zipf/s=1.2) used by
// the shape-comparison tests. Both groups cost 100 ns/op in this run.
func shapeCells() []MatrixCell {
	return []MatrixCell{
		{Profile: "churn", Contention: "low", Mutators: 1, Workers: 1, NsPerOp: 100},
		{Profile: "churn", Contention: "low", Mutators: 2, Workers: 1, NsPerOp: 100},
		{Profile: "zipf", Contention: "s=1.2", Mutators: 1, Workers: 1, NsPerOp: 100},
		{Profile: "zipf", Contention: "s=1.2", Mutators: 2, Workers: 1, NsPerOp: 100},
	}
}

func baselineFor(cells []MatrixCell, ns func(MatrixCell) float64) MatrixBaseline {
	b := MatrixBaseline{Fingerprint: CurrentHost().Fingerprint(), NsPerOp: map[string]float64{}}
	for _, c := range cells {
		b.NsPerOp[c.Key()] = ns(c)
	}
	return b
}

func TestMatrixBaselineShapeRegressionFlagged(t *testing.T) {
	// In the baseline, churn cost half of zipf; in this run they cost
	// the same — churn's normalized group median doubled. That shape
	// change must be flagged, and it must name the churn group only.
	rep := &MatrixReport{Host: CurrentHost(), Cells: shapeCells()}
	rep.CompareBaseline(baselineFor(rep.Cells, func(c MatrixCell) float64 {
		if c.Profile == "churn" {
			return 50
		}
		return 100
	}), 25)
	if !strings.HasPrefix(rep.BaselineComparison, "applied") {
		t.Fatalf("same-host comparison not applied: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "group churn/low") {
		t.Fatalf("churn shape regression not flagged: %v", rep.Regressions)
	}
}

func TestMatrixBaselineUniformSlowdownNotFlagged(t *testing.T) {
	// Every cell 3x slower than baseline: the shape is identical, so
	// nothing is flagged — a uniform shift is indistinguishable from
	// host load and is deliberately not gated here.
	rep := &MatrixReport{Host: CurrentHost(), Cells: shapeCells()}
	rep.CompareBaseline(baselineFor(rep.Cells, func(MatrixCell) float64 { return 300 }), 25)
	if !strings.HasPrefix(rep.BaselineComparison, "applied") {
		t.Fatalf("same-host comparison not applied: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("uniform slowdown flagged as shape regression: %v", rep.Regressions)
	}
}

func TestMatrixBaselineTooFewOverlapRefused(t *testing.T) {
	rep := &MatrixReport{Host: CurrentHost(), Cells: shapeCells()[:1]}
	rep.CompareBaseline(MatrixBaseline{
		Fingerprint: CurrentHost().Fingerprint(),
		NsPerOp:     map[string]float64{rep.Cells[0].Key(): 100},
	}, 25)
	if !strings.HasPrefix(rep.BaselineComparison, "refused") {
		t.Errorf("single-cell overlap not refused: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("refused comparison produced regressions: %v", rep.Regressions)
	}
}

func TestMatrixSanityFlagsCyclelessCell(t *testing.T) {
	rep := &MatrixReport{Cells: []MatrixCell{
		{Profile: "zipf", Contention: "s=1.2", Mutators: 1, Workers: 1, Cycles: 3},
		{Profile: "zipf", Contention: "s=1.2", Mutators: 2, Workers: 1, Cycles: 0},
	}}
	rep.Sanity()
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "zipf/s=1.2/m2/w1") {
		t.Fatalf("expected 1 sanity flag naming the zero-cycle cell, got %v", rep.Regressions)
	}
}
