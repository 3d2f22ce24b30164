package metrics

import (
	"reflect"
	"testing"
	"time"
)

func TestCycleKindString(t *testing.T) {
	if Partial.String() != "partial" || Full.String() != "full" {
		t.Fatalf("kind strings: %q, %q", Partial.String(), Full.String())
	}
}

func TestRecorderSequencing(t *testing.T) {
	r := NewRecorder()
	r.Record(Cycle{Kind: Partial})
	r.Record(Cycle{Kind: Full})
	cs := r.Cycles()
	if len(cs) != 2 || cs[0].Seq != 1 || cs[1].Seq != 2 {
		t.Fatalf("cycles = %+v", cs)
	}
	// Cycles must return a copy.
	cs[0].ObjectsFreed = 999
	if r.Cycles()[0].ObjectsFreed == 999 {
		t.Error("Cycles returned aliased storage")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := NewRecorder()
	s := r.Summarize(time.Second)
	if s.NumCycles != 0 || s.GCActivePct != 0 || s.NumPartial != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeAggregates(t *testing.T) {
	r := NewRecorder()
	r.Record(Cycle{
		Kind: Partial, Duration: 10 * time.Millisecond,
		ObjectsScanned: 100, InterGenScanned: 10,
		ObjectsFreed: 900, BytesFreed: 9000, Survivors: 100,
		DirtyCards: 50, AllocatedCards: 200,
		AreaScanned: 2048, PagesTouched: 7,
	})
	r.Record(Cycle{
		Kind: Partial, Duration: 30 * time.Millisecond,
		ObjectsScanned: 200, InterGenScanned: 30,
		ObjectsFreed: 700, BytesFreed: 7000, Survivors: 300,
		DirtyCards: 100, AllocatedCards: 200,
		AreaScanned: 4096, PagesTouched: 9,
	})
	r.Record(Cycle{
		Kind: Full, Duration: 60 * time.Millisecond,
		ObjectsScanned: 1000, ObjectsFreed: 400, BytesFreed: 4000,
		Survivors: 600, PagesTouched: 20,
	})
	s := r.Summarize(time.Second)

	if s.NumPartial != 2 || s.NumFull != 1 || s.NumCycles != 3 {
		t.Fatalf("counts = %d/%d/%d", s.NumPartial, s.NumFull, s.NumCycles)
	}
	if s.GCActive != 100*time.Millisecond {
		t.Errorf("GCActive = %v", s.GCActive)
	}
	if s.GCActivePct != 10 {
		t.Errorf("GCActivePct = %v, want 10", s.GCActivePct)
	}
	if s.AvgInterGenScanned != 20 {
		t.Errorf("AvgInterGenScanned = %v, want 20", s.AvgInterGenScanned)
	}
	if s.AvgScannedPartial != 150 {
		t.Errorf("AvgScannedPartial = %v, want 150", s.AvgScannedPartial)
	}
	if s.AvgScannedFull != 1000 {
		t.Errorf("AvgScannedFull = %v", s.AvgScannedFull)
	}
	if s.AvgFreedObjsPartial != 800 {
		t.Errorf("AvgFreedObjsPartial = %v, want 800", s.AvgFreedObjsPartial)
	}
	if s.AvgTimePartial != 20*time.Millisecond {
		t.Errorf("AvgTimePartial = %v", s.AvgTimePartial)
	}
	if s.AvgTimeFull != 60*time.Millisecond {
		t.Errorf("AvgTimeFull = %v", s.AvgTimeFull)
	}
	if s.AvgPagesPartial != 8 || s.AvgPagesFull != 20 {
		t.Errorf("pages = %v/%v", s.AvgPagesPartial, s.AvgPagesFull)
	}
	// Partials: freed 1600 of (1600 freed + 400 survivors) = 80%.
	if s.PctObjsFreedPartial != 80 {
		t.Errorf("PctObjsFreedPartial = %v, want 80", s.PctObjsFreedPartial)
	}
	// Full: freed 400 of (400 + 600) = 40%.
	if s.PctObjsFreedFull != 40 {
		t.Errorf("PctObjsFreedFull = %v, want 40", s.PctObjsFreedFull)
	}
	// Dirty: (25% + 50%) / 2 = 37.5%.
	if s.AvgDirtyCardPct != 37.5 {
		t.Errorf("AvgDirtyCardPct = %v, want 37.5", s.AvgDirtyCardPct)
	}
	if s.AvgAreaScanned != 3072 {
		t.Errorf("AvgAreaScanned = %v, want 3072", s.AvgAreaScanned)
	}
	if s.ObjectsFreed != 2000 || s.BytesFreed != 20000 {
		t.Errorf("totals = %d objs, %d bytes", s.ObjectsFreed, s.BytesFreed)
	}
}

// TestSummarizeBytesFreedPartial: Figure 12's byte share counts a
// partial's survivors exactly, promoted plus (aging) demoted bytes; a
// full collection's bytes do not enter it.
func TestSummarizeBytesFreedPartial(t *testing.T) {
	r := NewRecorder()
	r.Record(Cycle{Kind: Partial, ObjectsFreed: 10, BytesFreed: 6000, PromotedBytes: 1500})
	r.Record(Cycle{Kind: Partial, ObjectsFreed: 10, BytesFreed: 2000, PromotedBytes: 300, SurvivorBytes: 200})
	r.Record(Cycle{Kind: Full, ObjectsFreed: 50, BytesFreed: 90000})
	// 8000 freed of 8000 + 1500 + 300 + 200 = 10000 bytes.
	if got := r.Summarize(time.Second).PctBytesFreedPartial; got != 80 {
		t.Errorf("PctBytesFreedPartial = %v, want 80", got)
	}
}

func TestSummarizeDefaultElapsed(t *testing.T) {
	r := NewRecorder()
	r.Record(Cycle{Kind: Full, Duration: time.Millisecond})
	s := r.Summarize(0)
	if s.Elapsed <= 0 {
		t.Errorf("elapsed = %v, want positive wall time", s.Elapsed)
	}
}

// TestRecorderBounded: after many cycles the recorder retains only the
// last RetainedCycles records, numbered on from every cycle before
// them, while the summary and the demographics stay exact over all.
func TestRecorderBounded(t *testing.T) {
	const n = 10000
	r := NewRecorder()
	for i := 1; i <= n; i++ {
		c := Cycle{Kind: Partial, Duration: time.Microsecond, ObjectsFreed: i,
			PromotedObjects: 2, PagesTouched: 3, DeathsByClass: []int64{1}}
		if i%4 == 0 {
			c.Kind = Full
		}
		r.Record(c)
	}
	cs := r.Cycles()
	if len(cs) != RetainedCycles {
		t.Fatalf("retained %d records, want %d", len(cs), RetainedCycles)
	}
	for i, c := range cs {
		if want := n - RetainedCycles + 1 + i; c.Seq != want || c.ObjectsFreed != want {
			t.Fatalf("record %d has Seq %d, ObjectsFreed %d; want %d", i, c.Seq, c.ObjectsFreed, want)
		}
	}
	s := r.Summarize(time.Second)
	if s.NumCycles != n || s.NumFull != n/4 || s.NumPartial != n-n/4 {
		t.Errorf("counts = %d cycles, %d full, %d partial", s.NumCycles, s.NumFull, s.NumPartial)
	}
	if s.ObjectsFreed != n*(n+1)/2 || s.PagesTouched != 3*n || s.GCActive != n*time.Microsecond {
		t.Errorf("totals = %d freed, %d pages, %v active", s.ObjectsFreed, s.PagesTouched, s.GCActive)
	}
	d := r.Demographics()
	if d.PromotedObjects != 2*(n-n/4) || len(d.DeathsByClass) != 1 || d.DeathsByClass[0] != n {
		t.Errorf("demographics = %d promoted, deaths %v", d.PromotedObjects, d.DeathsByClass)
	}
}

// TestTotalsAddEveryField: Add sums every field of Cycle but Kind and
// Seq. The record is built by reflection — each count and duration a
// distinct nonzero value, each slice one element — so a field added to
// Cycle but not to Add fails here.
func TestTotalsAddEveryField(t *testing.T) {
	var c, want Cycle
	cv, wv := reflect.ValueOf(&c).Elem(), reflect.ValueOf(&want).Elem()
	for i := range cv.NumField() {
		name, f, w := cv.Type().Field(i).Name, cv.Field(i), wv.Field(i)
		v := int64(i + 1)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(v)
			if name != "Kind" && name != "Seq" {
				w.SetInt(2 * v)
			}
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int64{v}))
			w.Set(reflect.ValueOf([]int64{2 * v}))
		default:
			t.Fatalf("Cycle.%s is a %v: teach Add and this test to sum it", name, f.Kind())
		}
	}
	c.Kind = Full
	var tot Totals
	tot.Add(c)
	tot.Add(c)
	c.DeathsByClass[0] = -1 // the sums must not alias the record
	got := tot[Full]
	gv := reflect.ValueOf(got.Sum)
	for i := range gv.NumField() {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("Sum.%s = %v, want %v", gv.Type().Field(i).Name, gv.Field(i), wv.Field(i))
		}
	}
	pct := 100 * float64(c.DirtyCards) / float64(c.AllocatedCards)
	if got.Cycles != 2 || got.DirtyCardPct != 2*pct {
		t.Errorf("Cycles %d, DirtyCardPct %v; want 2, %v", got.Cycles, got.DirtyCardPct, 2*pct)
	}
	if !reflect.DeepEqual(tot[Partial], KindTotals{}) {
		t.Errorf("partial totals = %+v, want empty", tot[Partial])
	}
}
