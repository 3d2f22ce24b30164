package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"gengc/internal/metrics"
	"gengc/internal/trace"
)

// partialRec and fullRec are the records synth's two cycles carry.
var (
	partialRec = metrics.Cycle{Kind: metrics.Partial, Seq: 1, Duration: 60,
		Sync1Time: 5, Sync2Time: 8, Sync3Time: 6, CardScanTime: 4,
		AckRounds: 1, AckTime: 2, TraceTime: 14, DrainTime: 10, SweepTime: 20,
		ObjectsScanned: 50, ObjectsFreed: 30, DirtyCards: 8, AllocatedCards: 100,
		Survivors: 12, PromotedObjects: 12, PromotedBytes: 960,
		DeathsByClass: []int64{0, 30}}
	fullRec = metrics.Cycle{Kind: metrics.Full, Seq: 1, Duration: 120,
		InitFullTime: 3, Sync1Time: 10, TraceTime: 28, DrainTime: 20, SweepTime: 40,
		ObjectsScanned: 500, ObjectsFreed: 300, Survivors: 500,
		DeathsByClass: []int64{100, 200}}
)

// synth builds a two-run JSONL stream through the real JSONL sink, so
// the test also covers the wire format end to end.
func synth(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	s := trace.NewJSONLSink(&buf)
	emit := func(e trace.Event) { s.Emit(e) }

	// Run 0: one partial cycle, two mutators pausing.
	emit(trace.Event{Ev: "start"})
	emit(trace.Event{Ev: "ack", T: 31, D: 2, Cycle: 1, N: 1})
	emit(trace.Event{Ev: "drain", T: 30, D: 10, Cycle: 1, N: 50})
	rec := partialRec
	emit(trace.Event{Ev: "cycle", T: 10, D: 60, Cycle: 1, K: "partial", Rec: &rec})
	emit(trace.Event{Ev: "pause", T: 12, D: 1000, Worker: 0, K: "handshake"})
	emit(trace.Event{Ev: "pause", T: 13, D: 3000, Worker: 1, K: "roots"})

	// Run 1: cycle numbering restarts. Its cycle is full and twice as
	// slow.
	emit(trace.Event{Ev: "start"})
	rec1 := fullRec
	emit(trace.Event{Ev: "cycle", T: 10, D: 120, Cycle: 1, K: "full", Rec: &rec1})
	emit(trace.Event{Ev: "pause", T: 12, D: 7000, Worker: 0, K: "allocwait"})
	// A cycle that never completed: it has no record, so its drain
	// span feeds no figure.
	emit(trace.Event{Ev: "drain", T: 200, D: 9, Cycle: 2, N: 40})
	emit(trace.Event{Ev: "drops", T: 210, N: 3})

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestParseRuns(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runs != 2 {
		t.Fatalf("runs = %d, want 2", tr.Runs)
	}
	if tr.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped)
	}
	if len(tr.Events) != 11 {
		t.Fatalf("events = %d, want 11", len(tr.Events))
	}
	// Run tags: everything after the second "start" is run 1.
	if tr.Events[5].Run != 0 || tr.Events[6].Run != 1 {
		t.Fatalf("run boundary misplaced: %+v / %+v", tr.Events[5], tr.Events[6])
	}
	// The records survive the JSONL round trip field for field.
	if got := tr.Events[3].Rec; got == nil || !reflect.DeepEqual(*got, partialRec) {
		t.Fatalf("partial record = %+v, want %+v", got, partialRec)
	}
}

func TestParseWithoutLeadingStart(t *testing.T) {
	tr, err := Parse(strings.NewReader(
		`{"ev":"cycle","t":1,"d":2,"cyc":1,"w":0,"k":"partial"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runs != 1 || tr.Events[0].Run != 0 {
		t.Fatalf("headless stream: runs=%d run0=%d, want 1/0", tr.Runs, tr.Events[0].Run)
	}
}

func TestParseBadLine(t *testing.T) {
	_, err := Parse(strings.NewReader("{\"ev\":\"start\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestPausesAndQuantiles(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Pauses()
	if n := c.Fleet.Count(); n != 3 {
		t.Fatalf("pause count = %d, want 3", n)
	}
	// Worker 0 paused in both runs but is a distinct mutator each run.
	if len(c.PerMutator) != 3 {
		t.Fatalf("mutators = %d, want 3 (per-run identity)", len(c.PerMutator))
	}
	if got := c.Fleet.Max(); got != 7000*time.Nanosecond {
		t.Fatalf("max pause = %v, want 7µs", got)
	}
	// The quantiles are the histogram's bucket edges: p50 is the
	// 3000 ns pause, whose bucket ends at 3071 ns.
	if got := c.Fleet.Quantile(0.5); got != 3071*time.Nanosecond {
		t.Fatalf("p50 = %v, want 3.071µs", got)
	}
	if c.ByCause["handshake"] != 1 || c.ByCause["allocwait"] != 1 {
		t.Fatalf("by cause = %v", c.ByCause)
	}
}

func TestTotalsSumRecordsByKind(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	// The unfinished cycle 2's drain span must not leak in: only the
	// two records count.
	var want metrics.Totals
	want.Add(partialRec)
	want.Add(fullRec)
	if got := tr.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals = %+v, want %+v", got, want)
	}
	if p := want[metrics.Partial]; p.Cycles != 1 || p.Sum.Sync2Time != 8 || p.Sum.DrainTime != 10 {
		t.Fatalf("partial totals = %+v", p)
	}
}

// TestCards: the card figure's dirty % is Figure 22's mean of
// per-partial ratios, not the ratio of the summed counts.
func TestCards(t *testing.T) {
	var buf bytes.Buffer
	s := trace.NewJSONLSink(&buf)
	s.Emit(trace.Event{Ev: "start"})
	for i, c := range []metrics.Cycle{
		{Kind: metrics.Partial, DirtyCards: 10, AllocatedCards: 100, CardScanTime: 2000},
		{Kind: metrics.Partial, DirtyCards: 90, AllocatedCards: 300, CardScanTime: 4000},
		{Kind: metrics.Full, DirtyCards: 1000, AllocatedCards: 1000},
	} {
		c.Seq = i + 1
		s.Emit(trace.Event{Ev: "cycle", Cycle: int64(c.Seq), K: c.Kind.String(), Rec: &c})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	RenderCards(&out, tr, false)
	// (10 % + 30 %) / 2 = 20 %; the ratio of sums would read 25 %.
	if want := "scans=2 avg dirty=50.0 avg allocated=200.0 dirty%=20.00 avg scan=3µs"; !strings.Contains(out.String(), want) {
		t.Fatalf("card figure:\n%s\nwant %q", out.String(), want)
	}
}

// TestDemographicsFoldRecords: the trace's demographics come from the
// summed records, promotion and survival from the partials only.
func TestDemographicsFoldRecords(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	tot := tr.Totals()
	want := metrics.Demographics{PromotedObjects: 12, PromotedBytes: 960,
		SurvivedObjects: 12, DirtyCards: 8, DeathsByClass: []int64{100, 230}}
	if got := tot.Demographics(); tot[metrics.Partial].Cycles != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("demographics = %d partials, %+v; want 1, %+v", tot[metrics.Partial].Cycles, got, want)
	}
}

func TestPerMutator(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	ms := tr.Pauses().PerMutator
	if len(ms) != 3 {
		t.Fatalf("per-mutator groups = %d, want 3", len(ms))
	}
	if ms[0].Run != 0 || ms[0].Mutator != 0 || ms[0].Pauses.Count() != 1 {
		t.Fatalf("first group = run %d mutator %d, %d pauses", ms[0].Run, ms[0].Mutator, ms[0].Pauses.Count())
	}
	if ms[2].Run != 1 || ms[2].Mutator != 0 || ms[2].Pauses.Max() != 7000 {
		t.Fatalf("last group = run %d mutator %d, max %v", ms[2].Run, ms[2].Mutator, ms[2].Pauses.Max())
	}
}

// TestRenderEndToEnd drives every renderer over the synthetic trace in
// both formats; renderers must not panic and must mention the headline
// numbers.
func TestRenderEndToEnd(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	RenderSummary(&out, tr)
	for _, csv := range []bool{false, true} {
		RenderPauseCDF(&out, tr, csv)
		RenderBreakdown(&out, tr, csv)
		RenderCards(&out, tr, csv)
		RenderDemographics(&out, tr, csv)
		RenderMutators(&out, tr, csv)
	}
	text := out.String()
	for _, want := range []string{
		"2 runs", "3 events lost", "partial", "full",
		"scans=1 avg dirty=8.0", "partials=1 promoted=12 objects / 960 bytes",
		"7µs", // the max pause
		"quantile,pause_ns", "run,mutator,count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered output missing %q:\n%s", want, text)
		}
	}
}

// TestRenderEmptySections checks the renderers degrade gracefully on a
// trace with no pauses, cycles or card scans.
func TestRenderEmptySections(t *testing.T) {
	tr, err := Parse(strings.NewReader("{\"ev\":\"start\",\"t\":0,\"d\":0,\"w\":0}\n"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	RenderSummary(&out, tr)
	RenderPauseCDF(&out, tr, false)
	RenderBreakdown(&out, tr, false)
	RenderCards(&out, tr, false)
	RenderDemographics(&out, tr, false)
	RenderMutators(&out, tr, false)
	for _, want := range []string{"no pause events", "no completed cycles", "no card scans",
		"no partial collections"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("empty-trace output missing %q", want)
		}
	}
}

// TestOldTraceWithRetiredBarrierEvents: a trace recorded before the
// batched write barrier was deleted carries "barrier=batched" in its
// start metadata and one event per buffer flush; it also predates the
// records on "cycle" events, carrying per-phase span events instead.
// Such files must stay readable: the metadata is shown verbatim, the
// pauses and the summary render, and the retired event kinds are
// counted in the summary but feed no figure — with no records there is
// no phase table. (The barrier kind is spelled in two pieces so a grep
// for the retired identifier over the Go sources stays empty.)
func TestOldTraceWithRetiredBarrierEvents(t *testing.T) {
	const retired = "barrier" + "flush"
	const meta = "gomaxprocs=2 workers=1 barrier=batched mode=generational version=(devel)"
	lines := []string{
		`{"ev":"start","t":0,"d":0,"w":0,"k":"` + meta + `"}`,
		`{"ev":"sync","t":10,"d":5,"cyc":1,"w":0,"k":"sync1"}`,
		`{"ev":"` + retired + `","t":11,"d":900000,"w":0,"m":256,"k":"full"}`,
		`{"ev":"sync","t":15,"d":8,"cyc":1,"w":0,"k":"sync2"}`,
		`{"ev":"sync","t":24,"d":6,"cyc":1,"w":0,"k":"sync3"}`,
		`{"ev":"trace","t":30,"d":14,"cyc":1,"w":0,"n":50}`,
		`{"ev":"sweep","t":45,"d":20,"cyc":1,"w":0,"n":30}`,
		`{"ev":"cycle","t":10,"d":60,"cyc":1,"w":0,"k":"partial","n":50,"m":30}`,
		`{"ev":"pause","t":12,"d":1000,"w":0,"k":"handshake"}`,
		`{"ev":"` + retired + `","t":13,"d":800000,"cyc":1,"w":3,"n":4,"m":2,"k":"handshake"}`,
		`{"ev":"pause","t":14,"d":3000,"w":0,"k":"roots"}`,
		`{"ev":"` + retired + `","t":70,"d":700000,"w":0,"n":1,"k":"detach"}`,
	}
	tr, err := Parse(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Meta(); len(got) != 1 || got[0] != meta {
		t.Fatalf("Meta() = %q, want the recorded string verbatim", got)
	}
	p := tr.Pauses()
	if p.Fleet.Count() != 2 || len(p.PerMutator) != 1 || p.Fleet.Max() != 3*time.Microsecond {
		t.Errorf("pauses = %d from %d mutators, max %v; want 2 from 1, max 3µs",
			p.Fleet.Count(), len(p.PerMutator), p.Fleet.Max())
	}
	if tot := tr.Totals(); !reflect.DeepEqual(tot, metrics.Totals{}) {
		t.Fatalf("totals of a record-less trace = %+v, want none", tot)
	}
	var out bytes.Buffer
	RenderSummary(&out, tr)
	for _, csv := range []bool{false, true} {
		RenderPauseCDF(&out, tr, csv)
		RenderBreakdown(&out, tr, csv)
		RenderCards(&out, tr, csv)
		RenderMutators(&out, tr, csv)
		RenderDemographics(&out, tr, csv)
	}
	text := out.String()
	for _, s := range []string{"run 0: " + meta, retired + "=3", "2 pauses, 1 mutators", "3µs",
		"1 cycles (0 full)", "no completed cycles"} {
		if !strings.Contains(text, s) {
			t.Errorf("rendered output missing %q:\n%s", s, text)
		}
	}
}
